#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include "ml/binned.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"
#include "ml/tree.h"

namespace sugar::ml {
namespace {

/// Gaussian blobs: one cluster per class.
std::pair<Matrix, std::vector<int>> make_blobs(int classes, std::size_t per_class,
                                               std::size_t dims, double spread,
                                               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> noise(0.0f, static_cast<float>(spread));
  Matrix x(static_cast<std::size_t>(classes) * per_class, dims);
  std::vector<int> y;
  std::size_t row = 0;
  for (int c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i, ++row) {
      for (std::size_t d = 0; d < dims; ++d)
        x(row, d) = static_cast<float>(c * 3 + (d % 2 ? 1 : -1)) + noise(rng);
      y.push_back(c);
    }
  }
  return {std::move(x), std::move(y)};
}

TEST(DecisionTree, SeparatesCleanBlobs) {
  auto [x, y] = make_blobs(3, 60, 4, 0.3, 1);
  DecisionTree tree;
  TreeConfig cfg;
  std::mt19937_64 rng(2);
  tree.fit_classifier(BinnedMatrix(x, cfg.histogram_bins), &x, y, 3, cfg, rng);
  std::vector<int> pred;
  for (std::size_t i = 0; i < x.rows(); ++i) pred.push_back(tree.predict_class(x.row(i)));
  EXPECT_GT(evaluate(y, pred, 3).accuracy, 0.98);
  EXPECT_GT(tree.node_count(), 1u);
}

TEST(DecisionTree, MaxDepthBoundsTree) {
  auto [x, y] = make_blobs(4, 80, 3, 1.5, 3);
  DecisionTree tree;
  TreeConfig cfg;
  cfg.max_depth = 2;
  std::mt19937_64 rng(4);
  tree.fit_classifier(BinnedMatrix(x, cfg.histogram_bins), &x, y, 4, cfg, rng);
  EXPECT_LE(tree.depth(), 3);  // depth counts nodes; 2 split levels -> <= 3
}

TEST(DecisionTree, PureNodeBecomesLeaf) {
  Matrix x(10, 2, 1.0f);
  std::vector<int> y(10, 0);
  DecisionTree tree;
  TreeConfig cfg;
  std::mt19937_64 rng(5);
  tree.fit_classifier(BinnedMatrix(x, cfg.histogram_bins), &x, y, 2, cfg, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict_class(x.row(0)), 0);
}

TEST(DecisionTree, ImportanceIdentifiesInformativeFeature) {
  // Feature 0 carries all the signal, features 1-3 are noise.
  std::mt19937_64 data_rng(6);
  std::uniform_real_distribution<float> unif(0, 1);
  Matrix x(400, 4);
  std::vector<int> y;
  for (std::size_t i = 0; i < 400; ++i) {
    int cls = static_cast<int>(i % 2);
    x(i, 0) = static_cast<float>(cls) + 0.2f * unif(data_rng);
    for (std::size_t d = 1; d < 4; ++d) x(i, d) = unif(data_rng);
    y.push_back(cls);
  }
  DecisionTree tree;
  TreeConfig cfg;
  std::mt19937_64 rng(7);
  tree.fit_classifier(BinnedMatrix(x, cfg.histogram_bins), &x, y, 2, cfg, rng);
  const auto& imp = tree.feature_importance();
  EXPECT_GT(imp[0], imp[1] + imp[2] + imp[3]);
}

TEST(DecisionTree, RegressionFitsResiduals) {
  // Gradients of a step function of feature 0; the tree's leaf values must
  // approach -g/h on each side.
  Matrix x(100, 1);
  std::vector<float> grad(100), hess(100, 1.0f);
  for (std::size_t i = 0; i < 100; ++i) {
    x(i, 0) = static_cast<float>(i);
    grad[i] = i < 50 ? -2.0f : 4.0f;
  }
  DecisionTree tree;
  TreeConfig cfg;
  cfg.max_depth = 2;
  cfg.lambda = 0.0f;
  std::mt19937_64 rng(8);
  std::vector<float> row_values;
  tree.fit_regression(BinnedMatrix(x, cfg.histogram_bins), grad, hess, cfg, rng,
                      row_values);
  EXPECT_NEAR(tree.predict_value(x.row(10)), 2.0f, 0.2f);
  EXPECT_NEAR(tree.predict_value(x.row(90)), -4.0f, 0.2f);
}

TEST(DecisionTree, RegressionRowValuesMatchPredict) {
  // The row values come from the fit's own stable code partition; they
  // must be the predict_value() outputs bit for bit, for both growth
  // orders.
  std::mt19937_64 data_rng(21);
  std::normal_distribution<float> normal(0.0f, 1.0f);
  std::uniform_real_distribution<float> unif(0.05f, 1.0f);
  Matrix x(3000, 6);
  std::vector<float> grad(x.rows()), hess(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t d = 0; d < x.cols(); ++d) x(i, d) = normal(data_rng);
    grad[i] = x(i, 0) * x(i, 1) - x(i, 2) + 0.3f * normal(data_rng);
    hess[i] = unif(data_rng);
  }
  TreeConfig cfg;
  cfg.max_depth = 8;
  cfg.min_samples_leaf = 4;
  cfg.histogram_bins = 64;
  const BinnedMatrix codes(x, cfg.histogram_bins);
  for (int max_leaves : {0, 31}) {
    TreeConfig c = cfg;
    c.max_leaves = max_leaves;
    DecisionTree tree;
    std::mt19937_64 rng(22);
    std::vector<float> row_values;
    tree.fit_regression(codes, grad, hess, c, rng, row_values);
    ASSERT_GT(tree.node_count(), 15u) << "tree too small to exercise the partition";
    ASSERT_EQ(row_values.size(), x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i) {
      const float want = tree.predict_value(x.row(i));
      ASSERT_EQ(std::memcmp(&row_values[i], &want, sizeof(float)), 0)
          << "row " << i << " max_leaves " << max_leaves;
    }
  }
}

TEST(DecisionTree, LeafWiseGrowthRespectsLeafBudget) {
  auto [x, y] = make_blobs(6, 60, 4, 1.0, 9);
  DecisionTree tree;
  TreeConfig cfg;
  cfg.max_leaves = 4;
  cfg.max_depth = 20;
  std::mt19937_64 rng(10);
  tree.fit_classifier(BinnedMatrix(x, cfg.histogram_bins), &x, y, 6, cfg, rng);
  // max_leaves=4 -> at most 3 internal splits -> 7 nodes.
  EXPECT_LE(tree.node_count(), 7u);
}

TEST(DecisionTree, ExactAndHistogramSplitsAgreeOnEasyData) {
  auto [x, y] = make_blobs(2, 200, 3, 0.2, 11);
  std::mt19937_64 rng(12);
  DecisionTree exact, histo;
  TreeConfig ce;
  ce.exact_split_max = 100000;
  TreeConfig ch;
  ch.exact_split_max = 0;
  exact.fit_classifier(BinnedMatrix(x, ce.histogram_bins), &x, y, 2, ce, rng);
  histo.fit_classifier(BinnedMatrix(x, ch.histogram_bins), &x, y, 2, ch, rng);
  std::size_t agree = 0;
  for (std::size_t i = 0; i < x.rows(); ++i)
    if (exact.predict_class(x.row(i)) == histo.predict_class(x.row(i))) ++agree;
  EXPECT_GT(agree, x.rows() * 95 / 100);
}

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  auto [x, y] = make_blobs(5, 100, 6, 2.5, 13);
  auto [xt, yt] = make_blobs(5, 40, 6, 2.5, 14);

  std::mt19937_64 rng(15);
  DecisionTree tree;
  TreeConfig cfg;
  cfg.features_per_split = 2;
  tree.fit_classifier(BinnedMatrix(x, cfg.histogram_bins), &x, y, 5, cfg, rng);
  std::vector<int> tree_pred;
  for (std::size_t i = 0; i < xt.rows(); ++i)
    tree_pred.push_back(tree.predict_class(xt.row(i)));

  ForestConfig fc;
  fc.num_trees = 25;
  RandomForest rf(fc);
  rf.fit(x, y, 5);
  auto rf_pred = rf.predict(xt);

  double tree_acc = evaluate(yt, tree_pred, 5).accuracy;
  double rf_acc = evaluate(yt, rf_pred, 5).accuracy;
  EXPECT_GE(rf_acc, tree_acc - 0.02);
  EXPECT_GT(rf_acc, 0.8);
}

TEST(RandomForest, ImportanceNormalized) {
  auto [x, y] = make_blobs(3, 50, 5, 1.0, 16);
  RandomForest rf;
  rf.fit(x, y, 3);
  auto imp = rf.feature_importance();
  ASSERT_EQ(imp.size(), 5u);
  double sum = 0;
  for (double v : imp) {
    EXPECT_GE(v, 0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);

  auto ranked = ranked_importance(imp, {"a", "b", "c", "d", "e"});
  EXPECT_GE(ranked.front().second, ranked.back().second);
}

TEST(RandomForest, EmptyTrainingSetPredictsClassZero) {
  const Matrix empty(0, 5);
  const Matrix probe(4, 5, 1.0f);
  ForestConfig cfg;
  cfg.num_trees = 3;
  RandomForest fitted(cfg), binned(cfg);
  fitted.fit(empty, {}, 3);
  binned.fit_binned(BinnedMatrix(empty, cfg.tree.histogram_bins), {}, 3);
  EXPECT_EQ(fitted.predict(probe), std::vector<int>(4, 0));
  EXPECT_EQ(binned.predict(probe), std::vector<int>(4, 0));
}

TEST(Gbdt, BinaryClassification) {
  auto [x, y] = make_blobs(2, 150, 4, 1.2, 17);
  GradientBoosting gb(GbdtConfig::xgboost_style());
  gb.fit(x, y, 2);
  auto pred = gb.predict(x);
  EXPECT_GT(evaluate(y, pred, 2).accuracy, 0.95);
}

TEST(Gbdt, MulticlassSoftmax) {
  auto [x, y] = make_blobs(4, 100, 4, 1.0, 18);
  GradientBoosting gb(GbdtConfig::lightgbm_style());
  gb.fit(x, y, 4);
  auto pred = gb.predict(x);
  EXPECT_GT(evaluate(y, pred, 4).accuracy, 0.95);
  EXPECT_GT(gb.rounds_used(), 0);
}

TEST(Gbdt, TreeBudgetCapsRounds) {
  auto [x, y] = make_blobs(10, 30, 3, 1.0, 19);
  GbdtConfig cfg;
  cfg.rounds = 100;
  cfg.max_total_trees = 50;
  GradientBoosting gb(cfg);
  gb.fit(x, y, 10);
  EXPECT_LE(gb.rounds_used() * 10, 50);
  EXPECT_GE(gb.rounds_used(), 3);
}

TEST(Gbdt, DecisionFunctionShape) {
  auto [x, y] = make_blobs(3, 40, 3, 1.0, 20);
  GradientBoosting gb;
  gb.fit(x, y, 3);
  auto scores = gb.decision_function(x);
  EXPECT_EQ(scores.rows(), x.rows());
  EXPECT_EQ(scores.cols(), 3u);
}

TEST(Gbdt, EmptyTrainingSetPredictsClassZero) {
  const Matrix empty(0, 5);
  const Matrix probe(4, 5, 1.0f);
  for (int classes : {2, 3}) {
    GbdtConfig cfg;
    cfg.rounds = 3;
    GradientBoosting fitted(cfg), binned(cfg);
    fitted.fit(empty, {}, classes);
    binned.fit_binned(BinnedMatrix(empty, cfg.tree.histogram_bins), {}, classes);
    EXPECT_EQ(fitted.predict(probe), std::vector<int>(4, 0)) << classes << " classes";
    EXPECT_EQ(binned.predict(probe), std::vector<int>(4, 0)) << classes << " classes";
  }
}

}  // namespace
}  // namespace sugar::ml
