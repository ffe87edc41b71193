// Gradient-boosted decision trees with second-order (Newton) boosting and
// softmax multi-class output. Two presets mirror the paper's Table 8
// baselines: XGBoost-style depth-wise trees and LightGBM-style leaf-wise
// trees. Like those libraries' histogram methods, every split is chosen from
// histogram cuts only: the estimator is fit_binned over bin codes, and fit()
// quantizes its floats and calls it. Binary tasks use a single logistic tree
// per round; multi-class rounds fit their per-class trees in parallel on the
// thread pool.
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
    // XGBoost's and LightGBM's max_bin default (256 and 255); fewer bins
    // cost the Table 8 GBDT cells macro-F1 (DESIGN.md §16).
    tree.histogram_bins = 256;
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

  /// fit_binned(BinnedMatrix(x, cfg.tree.histogram_bins), y, num_classes):
  /// `x` is quantized once and every round's trees share the codes.
  void fit(const Matrix& x, const std::vector<int>& y, int num_classes);

  /// The boosting loop, over codes from a resident BinnedMatrix or a paged
  /// store; bit-identical for the same codes at any cache budget, page size
  /// or thread count. Each tree's fit hands back its training rows'
  /// outputs, read off its own row partition, for the margin update.
  void fit_binned(const BinnedColumnSource& codes, const std::vector<int>& y,
                  int num_classes);
  [[nodiscard]] std::vector<int> predict(const Matrix& x) const;
  /// Raw margin scores [n×classes].
  [[nodiscard]] Matrix decision_function(const Matrix& x) const;

  [[nodiscard]] std::vector<double> feature_importance() const;
  [[nodiscard]] int rounds_used() const { return rounds_used_; }

 private:
  GbdtConfig cfg_;
  int num_classes_ = 0;
  int rounds_used_ = 0;
  /// trees_[round * num_outputs + k]
  std::vector<DecisionTree> trees_;
  int num_outputs_ = 0;  // 1 for binary, K for multi-class
};

}  // namespace sugar::ml
