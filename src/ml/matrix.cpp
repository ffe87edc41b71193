#include "ml/matrix.h"

#include <algorithm>
#include <cmath>

#include "core/simd.h"
#include "core/threadpool.h"
#include "core/trace.h"
#include "ml/guard.h"

namespace sugar::ml {
namespace {

namespace simd = core::simd;

// Rows of the output matrix per parallel block. Fixed (never derived from
// the thread count); the blocks only decide which thread computes a C(i,j),
// never the order of its operations, so results are identical at any
// SUGAR_THREADS.
constexpr std::size_t kRowGrain = 8;

/// C[R×m] += A'[R×kk] · B[kk×m] for one R-row register tile (R = 1..4),
/// with B and C row-major at stride m and A'(r,k) = a[r*a_rs + k*a_ks]:
/// matmul_into walks rows of A, matmul_tn_acc columns. Each 8-column strip of the tile is loaded into R
/// f32x8 accumulators once, takes one mul_add per k in ascending k, and is
/// stored once. Leftover columns run the same multiply-then-add per k in
/// scalars. The accumulators are named, not an array: as a rolled array
/// GCC -O2 keeps them on the stack.
template <std::size_t R>
void gemm_tile(const float* __restrict__ a, std::size_t a_rs, std::size_t a_ks,
               const float* __restrict__ b, float* __restrict__ c, std::size_t kk,
               std::size_t m) {
  static_assert(R >= 1 && R <= 4);
  std::size_t j = 0;
  for (; j + simd::kLanes <= m; j += simd::kLanes) {
    float* cj = c + j;
    simd::f32x8 c0 = simd::loadu(cj), c1 = c0, c2 = c0, c3 = c0;
    if constexpr (R > 1) c1 = simd::loadu(cj + m);
    if constexpr (R > 2) c2 = simd::loadu(cj + 2 * m);
    if constexpr (R > 3) c3 = simd::loadu(cj + 3 * m);
    for (std::size_t k = 0; k < kk; ++k) {
      const float* ak = a + k * a_ks;
      const simd::f32x8 b8 = simd::loadu(b + k * m + j);
      c0 = simd::mul_add(simd::broadcast(ak[0]), b8, c0);
      if constexpr (R > 1) c1 = simd::mul_add(simd::broadcast(ak[a_rs]), b8, c1);
      if constexpr (R > 2) c2 = simd::mul_add(simd::broadcast(ak[2 * a_rs]), b8, c2);
      if constexpr (R > 3) c3 = simd::mul_add(simd::broadcast(ak[3 * a_rs]), b8, c3);
    }
    simd::storeu(cj, c0);
    if constexpr (R > 1) simd::storeu(cj + m, c1);
    if constexpr (R > 2) simd::storeu(cj + 2 * m, c2);
    if constexpr (R > 3) simd::storeu(cj + 3 * m, c3);
  }
  for (; j < m; ++j) {
    float s[R];
    for (std::size_t r = 0; r < R; ++r) s[r] = c[r * m + j];
    for (std::size_t k = 0; k < kk; ++k) {
      const float bkj = b[k * m + j];
      for (std::size_t r = 0; r < R; ++r) s[r] += a[r * a_rs + k * a_ks] * bkj;
    }
    for (std::size_t r = 0; r < R; ++r) c[r * m + j] = s[r];
  }
}

/// Rows [r0, r1) of C += A' · B in 4-row tiles, the leftover rows in one
/// narrower tile. Row i of A' starts at a + i*a_rs.
void gemm_rows(std::size_t r0, std::size_t r1, const float* a, std::size_t a_rs,
               std::size_t a_ks, const float* b, float* c, std::size_t kk,
               std::size_t m) {
  std::size_t i = r0;
  for (; i + 4 <= r1; i += 4)
    gemm_tile<4>(a + i * a_rs, a_rs, a_ks, b, c + i * m, kk, m);
  switch (r1 - i) {
    case 3: gemm_tile<3>(a + i * a_rs, a_rs, a_ks, b, c + i * m, kk, m); break;
    case 2: gemm_tile<2>(a + i * a_rs, a_rs, a_ks, b, c + i * m, kk, m); break;
    case 1: gemm_tile<1>(a + i * a_rs, a_rs, a_ks, b, c + i * m, kk, m); break;
    default: break;
  }
}

/// C(i,j), C(i,j+1), C(i+1,j), C(i+1,j+1) of A·B^T as four strided-8 dots
/// that share their row loads. Each ends as simd::dot does: the tail
/// elements land in lanes 0.., then the fixed reduce8 tree, so each is
/// bit-equal to simd::dot of its pair.
void dot_2x2(const float* __restrict__ a0, const float* __restrict__ a1,
             const float* __restrict__ b0, const float* __restrict__ b1,
             std::size_t n, float* __restrict__ c0, float* __restrict__ c1) {
  simd::f32x8 s00 = simd::zeros(), s01 = simd::zeros();
  simd::f32x8 s10 = simd::zeros(), s11 = simd::zeros();
  std::size_t k = 0;
  for (; k + simd::kLanes <= n; k += simd::kLanes) {
    const simd::f32x8 x0 = simd::loadu(a0 + k), x1 = simd::loadu(a1 + k);
    const simd::f32x8 y0 = simd::loadu(b0 + k), y1 = simd::loadu(b1 + k);
    s00 = simd::mul_add(x0, y0, s00);
    s01 = simd::mul_add(x0, y1, s01);
    s10 = simd::mul_add(x1, y0, s10);
    s11 = simd::mul_add(x1, y1, s11);
  }
  float lanes[4][simd::kLanes];
  simd::storeu(lanes[0], s00);
  simd::storeu(lanes[1], s01);
  simd::storeu(lanes[2], s10);
  simd::storeu(lanes[3], s11);
  for (std::size_t t = k; t < n; ++t) {
    lanes[0][t - k] += a0[t] * b0[t];
    lanes[1][t - k] += a0[t] * b1[t];
    lanes[2][t - k] += a1[t] * b0[t];
    lanes[3][t - k] += a1[t] * b1[t];
  }
  c0[0] = simd::reduce8(lanes[0]);
  c0[1] = simd::reduce8(lanes[1]);
  c1[0] = simd::reduce8(lanes[2]);
  c1[1] = simd::reduce8(lanes[3]);
}

}  // namespace

void Matrix::copy_from(const Matrix& o) {
  reshape(o.rows_, o.cols_);
  std::copy(o.data_.begin(), o.data_.end(), data_.begin());
}

Matrix Matrix::take_rows(const std::vector<std::size_t>& idx) const {
  Matrix out;
  take_rows_into(idx, out);
  return out;
}

void Matrix::take_rows_into(std::span<const std::size_t> idx,
                            Matrix& out) const {
  check_internal(&out != this, "take_rows_into: output aliases input");
  out.reshape(idx.size(), cols_);
  for (std::size_t i = 0; i < idx.size(); ++i)
    std::copy_n(row(idx[i]), cols_, out.row(i));
}

// The kernels below are dense: there is deliberately no `aik == 0.0f`
// branch-skip. On the float matrices these see (features, activations,
// gradients) zeros are common but unpredictable, so the branch is a
// mispredict tax on the inner loop, and skipping iterations breaks
// vectorization.
//
// Every C(i,j) sees a fixed sequence of IEEE-754 operations that depends
// only on the shapes. matmul_into and matmul_tn_acc: start from +0 or from
// C's current value, then one multiply and one add per k, in ascending k.
// matmul_nt_into: the strided-8 dot of simd::dot. The register tiles only
// decide which products run side by side in lanes, so results are bit-equal
// to the per-element loops at any thread count and on any core::simd
// backend.

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_into(a, b, c);
  return c;
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& c) {
  check_internal(a.cols() == b.rows(), "matmul: inner dimensions disagree");
  check_internal(&c != &a && &c != &b, "matmul: output aliases an input");
  c.reshape(a.rows(), b.cols());
  c.fill(0.0f);
  const std::size_t kk = a.cols(), m = b.cols();
  SUGAR_TRACE_COUNT("ml.gemm_flops", 2 * a.rows() * kk * m);
  core::global_pool().parallel_for(
      0, a.rows(), kRowGrain, [&](std::size_t r0, std::size_t r1) {
        gemm_rows(r0, r1, a.data().data(), kk, 1, b.data().data(),
                  c.data().data(), kk, m);
      });
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  matmul_tn_acc(a, b, c);
  return c;
}

void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  check_internal(a.rows() == b.rows(), "matmul_tn: row counts disagree");
  check_internal(c.rows() == a.cols() && c.cols() == b.cols(),
                 "matmul_tn_acc: output shape mismatch");
  check_internal(&c != &a && &c != &b, "matmul_tn_acc: output aliases an input");
  const std::size_t n = a.rows(), m = b.cols();
  SUGAR_TRACE_COUNT("ml.gemm_flops", 2 * n * a.cols() * m);
  // Output rows are columns of A: row i of A^T is A's column i, stride
  // a.cols() along k.
  core::global_pool().parallel_for(
      0, a.cols(), kRowGrain, [&](std::size_t i0, std::size_t i1) {
        gemm_rows(i0, i1, a.data().data(), 1, a.cols(), b.data().data(),
                  c.data().data(), n, m);
      });
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_nt_into(a, b, c);
  return c;
}

void matmul_nt_into(const Matrix& a, const Matrix& b, Matrix& c) {
  check_internal(a.cols() == b.cols(), "matmul_nt: column counts disagree");
  check_internal(&c != &a && &c != &b, "matmul_nt: output aliases an input");
  c.reshape(a.rows(), b.rows());
  const std::size_t kk = a.cols(), m = b.rows();
  SUGAR_TRACE_COUNT("ml.gemm_flops", 2 * a.rows() * kk * m);
  core::global_pool().parallel_for(
      0, a.rows(), kRowGrain, [&](std::size_t r0, std::size_t r1) {
        std::size_t i = r0;
        for (; i + 2 <= r1; i += 2) {
          const float* a0 = a.row(i);
          const float* a1 = a.row(i + 1);
          float* c0 = c.row(i);
          float* c1 = c.row(i + 1);
          std::size_t j = 0;
          for (; j + 2 <= m; j += 2)
            dot_2x2(a0, a1, b.row(j), b.row(j + 1), kk, c0 + j, c1 + j);
          if (j < m) {
            c0[j] = simd::dot(a0, b.row(j), kk);
            c1[j] = simd::dot(a1, b.row(j), kk);
          }
        }
        if (i < r1) {
          const float* ai = a.row(i);
          float* ci = c.row(i);
          for (std::size_t j = 0; j < m; ++j) ci[j] = simd::dot(ai, b.row(j), kk);
        }
      });
}

void add_row_vector(Matrix& m, const std::vector<float>& bias) {
  check_internal(bias.size() == m.cols(), "add_row_vector: bias size mismatch");
  for (std::size_t i = 0; i < m.rows(); ++i)
    simd::vadd_inplace(m.row(i), bias.data(), m.cols());
}

Matrix relu_inplace(Matrix& m) {
  Matrix mask;
  relu_inplace_into(m, mask);
  return mask;
}

void relu_inplace_into(Matrix& m, Matrix& mask) {
  mask.reshape(m.rows(), m.cols());
  float* v = m.data().data();
  float* mk = mask.data().data();
  const std::size_t n = m.size();
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    simd::f32x8 x = simd::loadu(v + i);
    simd::storeu(mk + i, simd::step01(x));
    simd::storeu(v + i, simd::relu(x));
  }
  for (; i < n; ++i) {
    mk[i] = v[i] > 0.0f ? 1.0f : 0.0f;
    v[i] = v[i] > 0.0f ? v[i] : 0.0f;
  }
}

void relu_inplace_nomask(Matrix& m) {
  float* v = m.data().data();
  const std::size_t n = m.size();
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes)
    simd::storeu(v + i, simd::relu(simd::loadu(v + i)));
  for (; i < n; ++i) v[i] = v[i] > 0.0f ? v[i] : 0.0f;
}

void hadamard_inplace(Matrix& m, const Matrix& o) {
  check_internal(m.rows() == o.rows() && m.cols() == o.cols(),
                 "hadamard_inplace: shape mismatch");
  simd::vmul_inplace(m.data().data(), o.data().data(), m.size());
}

void softmax_rows(Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    float* r = m.row(i);
    const std::size_t n = m.cols();
    float mx = simd::max(r, n);
    // exp stays scalar: libm's std::exp is the per-element spec on every
    // backend (a polynomial vector-exp would change bits).
    for (std::size_t j = 0; j < n; ++j) r[j] = std::exp(r[j] - mx);
    simd::vscale_inplace(r, 1.0f / simd::sum(r, n), n);
  }
}

std::vector<int> argmax_rows(const Matrix& m) {
  std::vector<int> out(m.rows(), 0);
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const float* r = m.row(i);
    out[i] = static_cast<int>(std::max_element(r, r + m.cols()) - r);
  }
  return out;
}

float squared_distance(const float* a, const float* b, std::size_t n) {
  return simd::squared_distance(a, b, n);
}

}  // namespace sugar::ml
