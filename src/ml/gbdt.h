// Gradient-boosted decision trees with second-order (Newton) boosting and
// softmax multi-class output. Two presets mirror the paper's Table 8
// baselines: XGBoost-style depth-wise trees and LightGBM-style leaf-wise
// trees. Binary tasks use a single logistic tree per round; multi-class
// rounds fit their per-class trees in parallel on the thread pool.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/guard.h"
#include "ml/tree.h"

namespace sugar::ml {

enum class GbdtGrowth { DepthWise, LeafWise };

struct GbdtConfig {
  int rounds = 40;
  float learning_rate = 0.2f;
  GbdtGrowth growth = GbdtGrowth::DepthWise;
  TreeConfig tree;
  std::uint64_t seed = 23;
  /// Cap on rounds*classes to keep many-class tasks tractable; rounds is
  /// reduced when classes are many (0 = no cap).
  int max_total_trees = 2000;
  /// Polled once per boosting round and before each class's tree; fit()
  /// throws CancelledError when set.
  const CancelToken* cancel = nullptr;

  GbdtConfig() {
    tree.max_depth = 6;
    tree.min_samples_leaf = 4;
    tree.features_per_split = 0;  // all features
    tree.histogram_bins = 64;
  }

  static GbdtConfig xgboost_style() {
    GbdtConfig c;
    c.growth = GbdtGrowth::DepthWise;
    return c;
  }
  static GbdtConfig lightgbm_style() {
    GbdtConfig c;
    c.growth = GbdtGrowth::LeafWise;
    c.tree.max_depth = 12;
    c.tree.max_leaves = 31;
    return c;
  }
};

class BinnedColumnSource;

class GradientBoosting {
 public:
  explicit GradientBoosting(GbdtConfig cfg = {}) : cfg_(cfg) {}

  /// Quantizes `x` once (ml::BinnedMatrix), shared by every round's trees;
  /// sibling-subtraction histograms apply since GBDT splits consider all
  /// features.
  void fit(const Matrix& x, const std::vector<int>& y, int num_classes);

  /// Out-of-core fit: fit() without the raw floats, so the float matrix
  /// never materializes. Histogram-only splits (exact_split_max forced to
  /// 0) make this a different estimator from fit(); it is bit-identical to
  /// itself at any cache budget, page size, or thread count.
  void fit_binned(const BinnedColumnSource& src, const std::vector<int>& y,
                  int num_classes);
  [[nodiscard]] std::vector<int> predict(const Matrix& x) const;
  /// Raw margin scores [n×classes].
  [[nodiscard]] Matrix decision_function(const Matrix& x) const;

  [[nodiscard]] std::vector<double> feature_importance() const;
  [[nodiscard]] int rounds_used() const { return rounds_used_; }

 private:
  /// The boosting loop behind fit() and fit_binned(): `raw` null means out
  /// of core. Each tree's fit hands back its training rows' outputs, read
  /// off its own row partition, for the margin update.
  void boost(const BinnedColumnSource& codes, const Matrix* raw,
             const std::vector<int>& y, int num_classes);

  GbdtConfig cfg_;
  int num_classes_ = 0;
  int rounds_used_ = 0;
  /// trees_[round * num_outputs + k]
  std::vector<DecisionTree> trees_;
  int num_outputs_ = 0;  // 1 for binary, K for multi-class
};

}  // namespace sugar::ml
