// Minimal dense linear algebra for the from-scratch ML stack: row-major
// float matrices with the handful of operations the classifiers and
// encoders need. No BLAS dependency. The GEMM kernels are register tiles
// over core::simd's 8-lane f32x8: A·B and A^T·B keep a 4×8 block of C in
// accumulators for the whole k loop, A·B^T computes 2×2 dots that share
// their row loads. Row blocks of C run on the shared core::ThreadPool
// (SUGAR_THREADS). A tile only decides which products share a vector,
// never the order of one C(i,j)'s operations (k-ascending multiply-adds,
// or simd::dot's strided-8 order for A·B^T), so results are bit-identical
// at any thread count and on any SIMD backend.
//
// Storage is 64-byte aligned (cache line / AVX-512 friendly) via a
// drop-in allocator; the buffer type is still a std::vector
// specialization, so iteration and pointer access are unchanged.
//
// The `_into` variants write into caller-owned matrices, reshaping
// without ever shrinking capacity — the nn training loops run on a
// MatrixArena of such buffers and perform zero heap allocations after
// the first batch of each shape.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <span>
#include <vector>

namespace sugar::ml {

/// Minimal C++17 aligned allocator: Matrix rows start on 64-byte
/// boundaries so unaligned SIMD loads never split a cache line.
template <typename T, std::size_t Align = 64>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    ::operator delete(p, n * sizeof(T), std::align_val_t(Align));
  }

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };
  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

using FloatBuffer = std::vector<float, AlignedAllocator<float>>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::size_t capacity() const { return data_.capacity(); }

  float& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  float* row(std::size_t r) { return data_.data() + r * cols_; }
  const float* row(std::size_t r) const { return data_.data() + r * cols_; }

  FloatBuffer& data() { return data_; }
  const FloatBuffer& data() const { return data_; }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  /// Re-shapes to [rows×cols] without ever shrinking capacity; newly
  /// exposed elements are zero, surviving ones keep their (now
  /// meaningless) values — callers overwrite. The scratch-reuse primitive
  /// behind MatrixArena and every `_into` kernel.
  void reshape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Becomes an element-wise copy of `o`, reusing existing capacity.
  void copy_from(const Matrix& o);

  /// Copies selected rows into a new matrix.
  [[nodiscard]] Matrix take_rows(const std::vector<std::size_t>& idx) const;
  /// Same, into a reused buffer (no allocation once `out` has capacity).
  void take_rows_into(std::span<const std::size_t> idx, Matrix& out) const;

 private:
  std::size_t rows_ = 0, cols_ = 0;
  FloatBuffer data_;
};

/// C = A * B. Shapes: [n×k] · [k×m] -> [n×m].
Matrix matmul(const Matrix& a, const Matrix& b);
void matmul_into(const Matrix& a, const Matrix& b, Matrix& c);
/// C = A^T * B. Shapes: [k×n]^T · [k×m] -> [n×m].
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// C += A^T * B with C already shaped [n×m] — the weight-gradient
/// accumulation kernel (no scratch matrix, adds straight into the grad).
void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c);
/// C = A * B^T. Shapes: [n×k] · [m×k]^T -> [n×m].
Matrix matmul_nt(const Matrix& a, const Matrix& b);
void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c);

/// Adds a bias row vector to every row in place.
void add_row_vector(Matrix& m, const std::vector<float>& bias);

/// ReLU in place; returns a 0/1 mask matrix for the backward pass.
Matrix relu_inplace(Matrix& m);
/// ReLU in place, mask written into a reused buffer.
void relu_inplace_into(Matrix& m, Matrix& mask);
/// ReLU in place without producing a mask (inference path).
void relu_inplace_nomask(Matrix& m);

/// m *= o element-wise (the ReLU-mask backward gate).
void hadamard_inplace(Matrix& m, const Matrix& o);

/// Row-wise softmax in place (numerically stabilized). Row max and sum use
/// the strided-8 reduction order from core/simd.h.
void softmax_rows(Matrix& m);

/// Index of each row's largest element, ties to the lowest column: the
/// class decision over a score matrix (MLP, downstream head, GBDT).
std::vector<int> argmax_rows(const Matrix& m);

/// Squared L2 distance between two float vectors of equal length, in the
/// strided-8 reduction order from core/simd.h.
float squared_distance(const float* a, const float* b, std::size_t n);

}  // namespace sugar::ml
