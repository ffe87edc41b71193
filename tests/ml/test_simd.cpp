// core::simd kernel tests: every vector kernel is pinned bit-for-bit
// against a hand-written scalar implementation of the determinism spec
// (k-ascending elementwise accumulation, strided-8 blocked reductions).
// The references here are deliberately independent code — plain loops, no
// core::simd calls except the shared reduce8 trees — so a backend that
// drifts from the spec fails even when both sides share a bug-free header.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "core/simd.h"
#include "core/threadpool.h"
#include "ml/matrix.h"

namespace sugar::ml {
namespace {

namespace simd = core::simd;

bool bits_equal(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

bool bits_equal(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.size() == 0 ||
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed,
                              float lo = -2.0f, float hi = 2.0f) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  for (auto& v : m.data()) v = dist(rng);
  return m;
}

// ---- Scalar spec references (strided-8 blocked reductions) ---------------

float ref_sum(const float* a, std::size_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (std::size_t l = 0; l < 8; ++l) lanes[l] += a[i + l];
  for (std::size_t t = i; t < n; ++t) lanes[t - i] += a[t];
  return simd::reduce8(lanes);
}

float ref_dot(const float* a, const float* b, std::size_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (std::size_t l = 0; l < 8; ++l) lanes[l] += a[i + l] * b[i + l];
  for (std::size_t t = i; t < n; ++t) lanes[t - i] += a[t] * b[t];
  return simd::reduce8(lanes);
}

float ref_sqdist(const float* a, const float* b, std::size_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (std::size_t l = 0; l < 8; ++l) {
      float d = a[i + l] - b[i + l];
      lanes[l] += d * d;
    }
  for (std::size_t t = i; t < n; ++t) {
    float d = a[t] - b[t];
    lanes[t - i] += d * d;
  }
  return simd::reduce8(lanes);
}

float ref_max(const float* a, std::size_t n) {
  if (n < 8) {
    float m = a[0];
    for (std::size_t i = 1; i < n; ++i) m = a[i] > m ? a[i] : m;
    return m;
  }
  float lanes[8];
  for (std::size_t l = 0; l < 8; ++l) lanes[l] = a[l];
  std::size_t i = 8;
  for (; i + 8 <= n; i += 8)
    for (std::size_t l = 0; l < 8; ++l)
      lanes[l] = a[i + l] > lanes[l] ? a[i + l] : lanes[l];
  for (std::size_t t = i; t < n; ++t)
    lanes[t - i] = a[t] > lanes[t - i] ? a[t] : lanes[t - i];
  return simd::reduce8_max(lanes);
}

void ref_softmax(Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    float* r = m.row(i);
    const std::size_t n = m.cols();
    float mx = ref_max(r, n);
    for (std::size_t j = 0; j < n; ++j) r[j] = std::exp(r[j] - mx);
    float inv = 1.0f / ref_sum(r, n);
    for (std::size_t j = 0; j < n; ++j) r[j] *= inv;
  }
}

// Lengths that cross every code path: empty, sub-lane, exact lane
// multiples, and every non-multiple-of-8 tail size.
const std::size_t kLengths[] = {0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100};

TEST(SimdReductions, MatchScalarSpecAtEveryLength) {
  for (std::size_t n : kLengths) {
    auto a = random_vec(n, 1000 + n);
    auto b = random_vec(n, 2000 + n);
    EXPECT_TRUE(bits_equal(simd::sum(a.data(), n), ref_sum(a.data(), n)))
        << "sum n=" << n;
    EXPECT_TRUE(bits_equal(simd::dot(a.data(), b.data(), n),
                           ref_dot(a.data(), b.data(), n)))
        << "dot n=" << n;
    EXPECT_TRUE(bits_equal(simd::squared_distance(a.data(), b.data(), n),
                           ref_sqdist(a.data(), b.data(), n)))
        << "sqdist n=" << n;
    if (n >= 1) {
      EXPECT_TRUE(bits_equal(simd::max(a.data(), n), ref_max(a.data(), n)))
          << "max n=" << n;
    }
  }
}

TEST(SquaredDistance, EdgeCases) {
  // Length 0: empty sum is exactly zero.
  EXPECT_TRUE(bits_equal(squared_distance(nullptr, nullptr, 0), 0.0f));
  // Length 1: a single scalar difference.
  float a1 = 3.0f, b1 = -1.0f;
  EXPECT_FLOAT_EQ(squared_distance(&a1, &b1, 1), 16.0f);
  // Identical vectors at a tail-heavy length.
  auto v = random_vec(13, 7);
  EXPECT_TRUE(bits_equal(squared_distance(v.data(), v.data(), 13), 0.0f));
  // ml::squared_distance is the simd kernel.
  auto a = random_vec(23, 8);
  auto b = random_vec(23, 9);
  EXPECT_TRUE(bits_equal(squared_distance(a.data(), b.data(), 23),
                         ref_sqdist(a.data(), b.data(), 23)));
}

TEST(ReluInplace, EdgeCases) {
  // 0x0 matrix: no-op, empty mask.
  Matrix empty;
  Matrix mask = relu_inplace(empty);
  EXPECT_EQ(mask.size(), 0u);

  // 1x1: positive keeps value, mask 1; zero and negative give 0/0.
  for (float v : {2.5f, 0.0f, -0.0f, -3.0f}) {
    Matrix m(1, 1);
    m(0, 0) = v;
    Matrix mk = relu_inplace(m);
    float expect_v = v > 0.0f ? v : 0.0f;
    float expect_m = v > 0.0f ? 1.0f : 0.0f;
    EXPECT_TRUE(bits_equal(m(0, 0), expect_v)) << "value for input " << v;
    EXPECT_TRUE(bits_equal(mk(0, 0), expect_m)) << "mask for input " << v;
  }

  // All-negative row with a non-multiple-of-8 width: everything zeroed,
  // and -0.0f inputs normalize to +0.0f on every backend.
  Matrix neg(1, 13);
  for (std::size_t j = 0; j < 13; ++j)
    neg(0, j) = j % 3 == 0 ? -0.0f : -1.0f * static_cast<float>(j + 1);
  Matrix neg_mask = relu_inplace(neg);
  for (std::size_t j = 0; j < 13; ++j) {
    EXPECT_TRUE(bits_equal(neg(0, j), 0.0f)) << "col " << j;
    EXPECT_TRUE(bits_equal(neg_mask(0, j), 0.0f)) << "col " << j;
  }

  // Mixed signs across lanes and tail, pinned against the scalar rule.
  Matrix m = random_matrix(3, 21, 11);
  Matrix ref_m = m;
  Matrix ref_mask(3, 21);
  for (std::size_t i = 0; i < ref_m.size(); ++i) {
    float v = ref_m.data()[i];
    ref_mask.data()[i] = v > 0.0f ? 1.0f : 0.0f;
    ref_m.data()[i] = v > 0.0f ? v : 0.0f;
  }
  Matrix got_mask = relu_inplace(m);
  EXPECT_TRUE(bits_equal(m, ref_m));
  EXPECT_TRUE(bits_equal(got_mask, ref_mask));

  // relu_inplace_nomask produces the same values.
  Matrix m2 = random_matrix(3, 21, 11);
  relu_inplace_nomask(m2);
  EXPECT_TRUE(bits_equal(m2, ref_m));
}

TEST(SoftmaxRows, EdgeCases) {
  // Single column: probability is exactly 1.
  Matrix one(2, 1);
  one(0, 0) = -50.0f;
  one(1, 0) = 1e4f;
  softmax_rows(one);
  EXPECT_TRUE(bits_equal(one(0, 0), 1.0f));
  EXPECT_TRUE(bits_equal(one(1, 0), 1.0f));

  // All-negative rows: the max subtraction keeps exp() in range and rows
  // still sum to ~1.
  Matrix neg(1, 11);
  for (std::size_t j = 0; j < 11; ++j)
    neg(0, j) = -100.0f - static_cast<float>(j);
  softmax_rows(neg);
  float s = 0;
  for (std::size_t j = 0; j < 11; ++j) {
    EXPECT_TRUE(std::isfinite(neg(0, j)));
    s += neg(0, j);
  }
  EXPECT_NEAR(s, 1.0f, 1e-5f);

  // Large-magnitude logits: exp(x - max) never overflows.
  Matrix big(1, 9);
  for (std::size_t j = 0; j < 9; ++j)
    big(0, j) = 1e4f + 10.0f * static_cast<float>(j);
  softmax_rows(big);
  for (std::size_t j = 0; j < 9; ++j) EXPECT_TRUE(std::isfinite(big(0, j)));
  EXPECT_GT(big(0, 8), 0.9f);  // the largest logit dominates

  // Tail-heavy width pinned bitwise against the scalar spec softmax.
  for (std::size_t cols : {1u, 5u, 8u, 13u, 24u}) {
    Matrix m = random_matrix(4, cols, 100 + cols);
    Matrix ref = m;
    softmax_rows(m);
    ref_softmax(ref);
    EXPECT_TRUE(bits_equal(m, ref)) << "cols=" << cols;
  }
}

/// The vector kernels are single-threaded per element but run inside the
/// pool's fixed block structure — their outputs must not move across
/// SUGAR_THREADS widths, and must stay equal to the scalar spec at each.
TEST(SimdDeterminism, KernelsBitStableAcrossThreadWidths) {
  const Matrix a = random_matrix(33, 29, 50);
  const Matrix b = random_matrix(29, 21, 51);
  const Matrix logits0 = random_matrix(9, 13, 52);

  Matrix ref_soft = logits0;
  ref_softmax(ref_soft);

  Matrix mm_ref, soft_ref, relu_ref, mask_ref;
  bool first = true;
  for (std::size_t threads : {1u, 2u, 7u}) {
    core::set_global_threads(threads);
    Matrix mm = matmul(a, b);
    Matrix soft = logits0;
    softmax_rows(soft);
    Matrix rl = a;
    Matrix mask = relu_inplace(rl);
    float sd = squared_distance(a.row(0), a.row(1), a.cols());
    EXPECT_TRUE(bits_equal(sd, ref_sqdist(a.row(0), a.row(1), a.cols())))
        << "threads=" << threads;
    EXPECT_TRUE(bits_equal(soft, ref_soft)) << "threads=" << threads;
    if (first) {
      mm_ref = mm;
      soft_ref = soft;
      relu_ref = rl;
      mask_ref = mask;
      first = false;
    } else {
      EXPECT_TRUE(bits_equal(mm, mm_ref)) << "threads=" << threads;
      EXPECT_TRUE(bits_equal(soft, soft_ref)) << "threads=" << threads;
      EXPECT_TRUE(bits_equal(rl, relu_ref)) << "threads=" << threads;
      EXPECT_TRUE(bits_equal(mask, mask_ref)) << "threads=" << threads;
    }
  }
  core::set_global_threads(0);
}

TEST(AlignedStorage, MatrixBuffersAre64ByteAligned) {
  for (std::size_t n : {1u, 7u, 64u, 1000u}) {
    Matrix m(n, 3);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.data().data()) % 64, 0u)
        << "rows=" << n;
  }
}

}  // namespace
}  // namespace sugar::ml
