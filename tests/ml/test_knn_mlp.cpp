#include <gtest/gtest.h>

#include <random>

#include "ml/knn.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/preprocess.h"

namespace sugar::ml {
namespace {

std::pair<Matrix, std::vector<int>> two_clusters(std::size_t per_class,
                                                 std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> noise(0.0f, 0.4f);
  Matrix x(per_class * 2, 2);
  std::vector<int> y;
  for (std::size_t i = 0; i < per_class * 2; ++i) {
    int cls = i < per_class ? 0 : 1;
    x(i, 0) = static_cast<float>(cls * 4) + noise(rng);
    x(i, 1) = static_cast<float>(cls * 4) + noise(rng);
    y.push_back(cls);
  }
  return {std::move(x), std::move(y)};
}

TEST(Knn, ClassifiesClusters) {
  auto [x, y] = two_clusters(50, 1);
  auto [xt, yt] = two_clusters(20, 2);
  KnnClassifier knn(5);
  knn.fit(x, y, 2);
  auto pred = knn.predict(xt);
  EXPECT_GT(evaluate(yt, pred, 2).accuracy, 0.97);
}

TEST(KnnPurity, SeparatedClustersAreFullyPure) {
  auto [x, y] = two_clusters(30, 3);
  auto purity = knn_purity(x, y, 5);
  EXPECT_NEAR(purity.mean_purity, 1.0, 0.02);
  EXPECT_NEAR(purity.histogram[5], 1.0, 0.05);
}

TEST(KnnPurity, RandomLabelsAreImpure) {
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<float> unif(0, 1);
  Matrix x(200, 3);
  for (auto& v : x.data()) v = unif(rng);
  std::vector<int> y;
  for (int i = 0; i < 200; ++i) y.push_back(static_cast<int>(rng() % 10));
  auto purity = knn_purity(x, y, 5);
  EXPECT_LT(purity.mean_purity, 0.25);
  EXPECT_GT(purity.histogram[0], 0.4);  // most points: zero same-class nbrs
}

TEST(KnnPurity, HistogramSumsToOne) {
  auto [x, y] = two_clusters(25, 5);
  auto purity = knn_purity(x, y, 5);
  double sum = 0;
  for (double h : purity.histogram) sum += h;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(purity.histogram.size(), 6u);
}

TEST(KnnPurity, DegenerateInputs) {
  Matrix one(1, 2, 0.0f);
  auto p = knn_purity(one, {0}, 5);
  EXPECT_EQ(p.mean_purity, 0.0);
}

TEST(Mlp, ClassifiesClusters) {
  auto [x, y] = two_clusters(80, 6);
  auto [xt, yt] = two_clusters(30, 7);
  MlpConfig cfg;
  cfg.epochs = 60;
  cfg.hidden = {16};
  MlpClassifier mlp(cfg);
  mlp.fit(x, y, 2);
  auto pred = mlp.predict(xt);
  EXPECT_GT(evaluate(yt, pred, 2).accuracy, 0.95);

  auto proba = mlp.predict_proba(xt);
  for (std::size_t i = 0; i < proba.rows(); ++i)
    EXPECT_NEAR(proba(i, 0) + proba(i, 1), 1.0f, 1e-4f);
}

TEST(Scaler, NormalizesTrainStatistics) {
  Matrix x(4, 2);
  x(0, 0) = 1; x(1, 0) = 2; x(2, 0) = 3; x(3, 0) = 4;
  x(0, 1) = 10; x(1, 1) = 10; x(2, 1) = 10; x(3, 1) = 10;
  StandardScaler scaler;
  scaler.fit(x);
  EXPECT_NEAR(scaler.mean()[0], 2.5f, 1e-6f);
  EXPECT_NEAR(scaler.mean()[1], 10.0f, 1e-6f);
  // Constant column: stddev guarded to 1.
  EXPECT_NEAR(scaler.stddev()[1], 1.0f, 1e-6f);

  scaler.transform(x);
  float mean0 = (x(0, 0) + x(1, 0) + x(2, 0) + x(3, 0)) / 4;
  EXPECT_NEAR(mean0, 0.0f, 1e-6f);
  EXPECT_NEAR(x(0, 1), 0.0f, 1e-6f);
}

TEST(Scaler, TransformUsesTrainStats) {
  Matrix train(2, 1);
  train(0, 0) = 0;
  train(1, 0) = 2;
  StandardScaler scaler;
  scaler.fit(train);
  Matrix test(1, 1);
  test(0, 0) = 4;
  scaler.transform(test);
  EXPECT_NEAR(test(0, 0), 3.0f, 1e-5f);  // (4-1)/1
}

}  // namespace
}  // namespace sugar::ml
