#include "ml/matrix.h"

#include "core/trace.h"

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
// the thread count) so the block structure — and therefore every
// floating-point accumulation order — is identical at any SUGAR_THREADS.
constexpr std::size_t kRowGrain = 8;
// k-panel width: a panel of B rows (kPanel × cols floats) stays hot in L1/L2
// while it is streamed against every A row of the block.
constexpr std::size_t kPanel = 64;

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

void Matrix::take_rows_into(const std::vector<std::size_t>& idx,
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
// Vectorization runs along the output column j (simd::axpy): every C(i,j)
// keeps its k-ascending accumulation order, so the SIMD kernels are
// bit-equal to the scalar loops they replaced — at any thread count and on
// any core::simd backend. matmul_nt is a dot-product shape instead; its
// per-(i,j) reduction uses the strided-8 order (simd::dot).

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
        for (std::size_t k0 = 0; k0 < kk; k0 += kPanel) {
          const std::size_t k1 = std::min(kk, k0 + kPanel);
          for (std::size_t i = r0; i < r1; ++i) {
            const float* __restrict__ ai = a.row(i);
            float* __restrict__ ci = c.row(i);
            for (std::size_t k = k0; k < k1; ++k)
              simd::axpy(ci, b.row(k), ai[k], m);
          }
        }
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
  // Output rows are columns of A; each block owns rows [i0, i1) of C, and
  // the k (sample) loop stays outermost so A and B are streamed once per
  // block in row-major order.
  core::global_pool().parallel_for(
      0, a.cols(), kRowGrain, [&](std::size_t i0, std::size_t i1) {
        for (std::size_t k = 0; k < n; ++k) {
          const float* __restrict__ ak = a.row(k);
          const float* __restrict__ bk = b.row(k);
          for (std::size_t i = i0; i < i1; ++i)
            simd::axpy(c.row(i), bk, ak[i], m);
        }
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
        for (std::size_t i = r0; i < r1; ++i) {
          const float* __restrict__ ai = a.row(i);
          float* __restrict__ ci = c.row(i);
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

float squared_distance(const float* a, const float* b, std::size_t n) {
  return simd::squared_distance(a, b, n);
}

}  // namespace sugar::ml
