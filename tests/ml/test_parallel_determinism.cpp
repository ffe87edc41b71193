// Determinism contract of the parallel ml kernels: GEMM, forest, k-NN, the
// MLP training step and a whole MLP fit must produce bit-identical results at
// SUGAR_THREADS = 1, 2 and 7 (an odd width catches remainder-partition
// bugs), and each GEMM kernel must match its per-element reference exactly
// (same operation order, so equality is bitwise, not approximate).
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact.h"
#include "core/simd.h"
#include "core/threadpool.h"
#include "ml/forest.h"
#include "ml/knn.h"
#include "ml/matrix.h"
#include "ml/mlp.h"
#include "ml/nn.h"

namespace sugar::ml {
namespace {

/// Rebuilds the global pool at a given width for the test body, then
/// restores the env-derived width so later tests see the default substrate.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { core::set_global_threads(n); }
  ~ScopedThreads() { core::set_global_threads(0); }
};

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  for (auto& v : m.data()) v = dist(rng);
  return m;
}

bool bit_equal(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

/// C = A B reference: every C(i,j) starts from +0, then one multiply and
/// one add per k, in ascending k.
Matrix naive_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t k = 0; k < a.cols(); ++k)
      for (std::size_t j = 0; j < b.cols(); ++j)
        c(i, j) += a(i, k) * b(k, j);
  return c;
}

/// C += A^T B reference: every C(i,j) accumulates k ascending from C's
/// current value, one multiply then one add per step.
void naive_matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  for (std::size_t k = 0; k < a.rows(); ++k)
    for (std::size_t i = 0; i < a.cols(); ++i)
      for (std::size_t j = 0; j < b.cols(); ++j)
        c(i, j) += a(k, i) * b(k, j);
}

/// C = A B^T reference: each C(i,j) is simd::dot of row i of A and row j
/// of B, i.e. the strided-8 partial sums combined by reduce8.
Matrix dot_matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.rows(); ++j)
      c(i, j) = core::simd::dot(a.row(i), b.row(j), a.cols());
  return c;
}

const std::size_t kWidths[] = {1, 2, 7};

/// {output rows, inner, output cols}. The first leaves a remainder in every
/// tile dimension (rows % 4, rows % 2, cols % 8, cols % 2 and inner % 8
/// all nonzero) and spans several row blocks; the rest are a 1×1, inner
/// dimensions below one 8-lane vector, and rows/cols below one tile.
const std::size_t kShapes[][3] = {
    {67, 129, 43}, {1, 1, 1}, {13, 5, 19}, {1, 7, 9}, {6, 3, 1}, {9, 16, 8}};

std::string shape_name(const std::size_t* s) {
  return std::to_string(s[0]) + "x" + std::to_string(s[1]) + "x" +
         std::to_string(s[2]);
}

TEST(ParallelDeterminism, MatmulMatchesNaiveAndAllWidths) {
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s[0], s[1], 11);
    const Matrix b = random_matrix(s[1], s[2], 12);
    const Matrix ref = naive_matmul(a, b);
    for (std::size_t w : kWidths) {
      ScopedThreads threads(w);
      EXPECT_TRUE(bit_equal(matmul(a, b), ref))
          << shape_name(s) << " threads " << w;
    }
  }
}

TEST(ParallelDeterminism, MatmulTnAllWidths) {
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s[1], s[0], 13);  // [inner×rows]^T
    const Matrix b = random_matrix(s[1], s[2], 14);
    const Matrix c0 = random_matrix(s[0], s[2], 15);  // non-zero start
    Matrix ref_zero(s[0], s[2]);
    naive_matmul_tn_acc(a, b, ref_zero);
    Matrix ref_acc = c0;
    naive_matmul_tn_acc(a, b, ref_acc);
    for (std::size_t w : kWidths) {
      ScopedThreads threads(w);
      EXPECT_TRUE(bit_equal(matmul_tn(a, b), ref_zero))
          << shape_name(s) << " threads " << w;
      Matrix c = c0;
      matmul_tn_acc(a, b, c);
      EXPECT_TRUE(bit_equal(c, ref_acc)) << shape_name(s) << " acc, threads " << w;
    }
  }
}

TEST(ParallelDeterminism, MatmulNtAllWidths) {
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s[0], s[1], 16);
    const Matrix b = random_matrix(s[2], s[1], 17);  // [cols×inner]
    const Matrix ref = dot_matmul_nt(a, b);
    for (std::size_t w : kWidths) {
      ScopedThreads threads(w);
      EXPECT_TRUE(bit_equal(matmul_nt(a, b), ref))
          << shape_name(s) << " threads " << w;
    }
  }
}

TEST(ParallelDeterminism, ForestFitPredictImportanceAllWidths) {
  const Matrix x = random_matrix(300, 12, 41);
  std::vector<int> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 4);
  const Matrix q = random_matrix(57, 12, 42);

  ForestConfig cfg;
  cfg.num_trees = 15;  // odd count: uneven final tree block
  cfg.seed = 99;

  std::vector<int> ref_pred;
  std::vector<double> ref_imp;
  for (std::size_t w : kWidths) {
    ScopedThreads threads(w);
    RandomForest rf(cfg);
    rf.fit(x, y, 4);
    auto pred = rf.predict(q);
    auto imp = rf.feature_importance();
    if (ref_pred.empty()) {
      ref_pred = pred;
      ref_imp = imp;
      continue;
    }
    EXPECT_EQ(pred, ref_pred) << "threads " << w;
    ASSERT_EQ(imp.size(), ref_imp.size());
    for (std::size_t f = 0; f < imp.size(); ++f)
      EXPECT_EQ(imp[f], ref_imp[f]) << "feature " << f << " threads " << w;
  }
}

TEST(ParallelDeterminism, KnnPredictAndPurityAllWidths) {
  const Matrix train = random_matrix(200, 8, 51);
  std::vector<int> labels(train.rows());
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<int>(i % 3);
  const Matrix query = random_matrix(77, 8, 52);

  std::vector<int> ref_pred;
  PurityHistogram ref_purity;
  for (std::size_t w : kWidths) {
    ScopedThreads threads(w);
    KnnClassifier knn(5);
    knn.fit(train, labels, 3);
    auto pred = knn.predict(query);
    auto purity = knn_purity(train, labels, 5);
    if (ref_pred.empty()) {
      ref_pred = pred;
      ref_purity = purity;
      continue;
    }
    EXPECT_EQ(pred, ref_pred) << "threads " << w;
    EXPECT_EQ(purity.mean_purity, ref_purity.mean_purity) << "threads " << w;
    ASSERT_EQ(purity.histogram.size(), ref_purity.histogram.size());
    for (std::size_t j = 0; j < purity.histogram.size(); ++j)
      EXPECT_EQ(purity.histogram[j], ref_purity.histogram[j])
          << "bin " << j << " threads " << w;
  }
}

/// FNV-1a over a matrix's raw float bytes.
std::uint64_t digest_of(const Matrix& m) {
  return core::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(m.data().data()), m.size() * sizeof(float)));
}

/// FNV-1a over raw label bytes.
std::uint64_t digest_of(const std::vector<int>& v) {
  return core::fnv1a64(std::string_view(reinterpret_cast<const char*>(v.data()),
                                        v.size() * sizeof(int)));
}

// Recorded before the GEMM kernels were register-tiled and before Adam ran
// on the pool. The first layer is 131×97 = 12,707 weights: one whole
// 8,192-element Adam block, then a block whose length is not a multiple of
// 8. Every GEMM shape here leaves row, column and inner remainders.
constexpr std::uint64_t kPinnedMlpOutputs = 0xf4f5596af30ec8d9ull;

TEST(ParallelDeterminism, MlpAdamDigestPinnedAcrossPoolWidths) {
  const Matrix x = random_matrix(37, 131, 61);
  std::vector<int> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 5);
  for (std::size_t w : kWidths) {
    ScopedThreads threads(w);
    MlpNet net({131, 97, 5}, 62);
    Matrix grad;
    for (int step = 0; step < 6; ++step) {
      net.zero_grad();
      Matrix& logits = net.forward(x, true);
      softmax_cross_entropy(logits, y, grad);
      net.backward(grad);
      net.adam_step(0.01f);
    }
    EXPECT_EQ(digest_of(net.forward(x, false)), kPinnedMlpOutputs) << "threads " << w;
  }
}

// Recorded before the minibatch fits shared one epoch loop. 150 rows
// leave a 22-row last batch at the default batch size of 64, and the
// classes overlap, so the probabilities carry every weight's bits.
constexpr std::uint64_t kPinnedMlpFitProba = 0xcc35639ae2cee50cull;
constexpr std::uint64_t kPinnedMlpFitPredictions = 0xefd537a7d34dac47ull;

TEST(ParallelDeterminism, MlpFitDigestsPinnedAcrossPoolWidths) {
  std::mt19937_64 rng(23);
  std::normal_distribution<float> noise(0.0f, 1.0f);
  Matrix x(150, 6);
  std::vector<int> y(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    y[i] = static_cast<int>(i % 3);
    for (std::size_t j = 0; j < x.cols(); ++j)
      x(i, j) = noise(rng) + (j % 3 == static_cast<std::size_t>(y[i]) ? 1.0f : 0.0f);
  }
  for (std::size_t w : kWidths) {
    ScopedThreads threads(w);
    MlpConfig cfg;
    cfg.epochs = 6;
    cfg.hidden = {32};
    MlpClassifier mlp(cfg);
    mlp.fit(x, y, 3);
    EXPECT_EQ(digest_of(mlp.predict_proba(x)), kPinnedMlpFitProba) << "threads " << w;
    EXPECT_EQ(digest_of(mlp.predict(x)), kPinnedMlpFitPredictions) << "threads " << w;
  }
}

}  // namespace
}  // namespace sugar::ml
