// Vector-kernel smoke for sanitizer builds. Built as its own binary so a
// UBSan configuration (-DSUGAR_SANITIZE=undefined) can run just this under
// `ctest -L ubsan`; it also runs (and must pass) in plain builds.
//
// The point is coverage, not pinning: hammer every core::simd helper and
// every vectorized ml kernel across lengths that hit all lane/tail code
// paths and across unaligned base pointers, so misaligned loads, heap
// overruns on 8-wide tails, or UB in the intrinsics wrappers trip the
// sanitizer. Correctness is checked loosely against naive references —
// the bitwise pins live in test_simd.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "core/simd.h"
#include "ml/matrix.h"
#include "ml/nn.h"

namespace sugar::ml {
namespace {

namespace simd = core::simd;

std::vector<float> random_vec(std::size_t n, std::mt19937_64& rng) {
  std::uniform_real_distribution<float> dist(-3.0f, 3.0f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(SimdStress, HelpersAcrossLengthsAndOffsets) {
  std::mt19937_64 rng(99);
  // Over-allocate so every offset keeps the tail in bounds; offsets walk
  // through every alignment mod 32 bytes.
  for (std::size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 15u, 16u, 31u, 33u, 257u}) {
    for (std::size_t off : {0u, 1u, 3u, 5u, 7u}) {
      auto a = random_vec(n + off, rng);
      auto b = random_vec(n + off, rng);
      const float* pa = a.data() + off;
      const float* pb = b.data() + off;

      double ref_dot = 0, ref_sum = 0, ref_sq = 0;
      for (std::size_t i = 0; i < n; ++i) {
        ref_dot += static_cast<double>(pa[i]) * pb[i];
        ref_sum += pa[i];
        double d = static_cast<double>(pa[i]) - pb[i];
        ref_sq += d * d;
      }
      // Loose relative tolerance: the reference accumulates in double.
      auto tol = [](double ref) { return 1e-3 * (1.0 + std::abs(ref)); };
      EXPECT_NEAR(simd::dot(pa, pb, n), ref_dot, tol(ref_dot)) << "n=" << n;
      EXPECT_NEAR(simd::sum(pa, n), ref_sum, tol(ref_sum)) << "n=" << n;
      EXPECT_NEAR(simd::squared_distance(pa, pb, n), ref_sq, tol(ref_sq))
          << "n=" << n;
      if (n >= 1) {
        float mx = pa[0];
        for (std::size_t i = 1; i < n; ++i) mx = std::max(mx, pa[i]);
        EXPECT_EQ(simd::max(pa, n), mx) << "n=" << n;
      }

      auto dst = random_vec(n + off, rng);
      simd::vscale_inplace(dst.data() + off, 0.5f, n);
      simd::vadd_inplace(dst.data() + off, pa, n);
      simd::vmul_inplace(dst.data() + off, pb, n);
    }
  }
}

TEST(SimdStress, MatrixKernelsAcrossShapes) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  // {rows, inner, cols}. Odd shapes force tails in every kernel: the
  // register tiles' row (4 and 2), column (8 and 2) and inner (8)
  // remainders, inner dimensions below one vector, and a 1×1.
  const std::size_t shapes[][3] = {
      {1, 1, 1},    {2, 3, 5},     {7, 9, 11},  {8, 8, 8},
      {17, 65, 13}, {33, 70, 21},  {67, 129, 43}, {13, 5, 19},
      {1, 7, 9},    {6, 3, 1},     {9, 16, 8}};
  for (const auto& s : shapes) {
    Matrix a(s[0], s[1]), b(s[1], s[2]), bt(s[2], s[1]);
    for (auto& v : a.data()) v = dist(rng);
    for (auto& v : b.data()) v = dist(rng);
    for (auto& v : bt.data()) v = dist(rng);

    Matrix c = matmul(a, b);
    ASSERT_EQ(c.rows(), s[0]);
    ASSERT_EQ(c.cols(), s[2]);
    double ref00 = 0;
    for (std::size_t k = 0; k < s[1]; ++k)
      ref00 += static_cast<double>(a(0, k)) * b(k, 0);
    EXPECT_NEAR(c(0, 0), ref00, 1e-3);

    Matrix cnt = matmul_nt(a, bt);
    ASSERT_EQ(cnt.rows(), s[0]);
    ASSERT_EQ(cnt.cols(), s[2]);

    Matrix acc(s[1], s[2]);
    matmul_tn_acc(a, c, acc);  // [m×k]^T·[m×n]: just exercise the kernel

    Matrix relu = a;
    Matrix mask = relu_inplace(relu);
    for (std::size_t i = 0; i < relu.size(); ++i) {
      EXPECT_GE(relu.data()[i], 0.0f);
      EXPECT_TRUE(mask.data()[i] == 0.0f || mask.data()[i] == 1.0f);
    }

    Matrix soft = a;
    softmax_rows(soft);
    for (std::size_t i = 0; i < soft.rows(); ++i) {
      float rs = 0;
      for (std::size_t j = 0; j < soft.cols(); ++j) rs += soft(i, j);
      EXPECT_NEAR(rs, 1.0f, 1e-4f);
    }
  }
}

TEST(SimdStress, TrainingStepEndToEnd) {
  // One full arena-backed train/infer cycle: forward, CE + MSE losses,
  // backward, Adam — every vectorized path under the sanitizer.
  MlpNet net({11, 13, 5}, 3);
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  Matrix x(9, 11);
  for (auto& v : x.data()) v = dist(rng);
  std::vector<int> y(9);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 5);

  Matrix grad;
  for (int step = 0; step < 5; ++step) {
    net.zero_grad();
    Matrix& logits = net.forward(x, true);
    float loss = softmax_cross_entropy(logits, y, grad);
    EXPECT_TRUE(std::isfinite(loss));
    net.backward(grad);
    net.adam_step(0.01f);
  }

  Matrix& out = net.forward(x, false);
  Matrix target(out.rows(), out.cols(), 0.25f);
  float mse = mse_loss(out, target, grad);
  EXPECT_TRUE(std::isfinite(mse));
}

}  // namespace
}  // namespace sugar::ml
