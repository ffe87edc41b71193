// Histogram-based CART decision trees, the building block for the Random
// Forest and gradient-boosting baselines of Table 8. One implementation
// supports both Gini classification splits and second-order (XGBoost-style)
// regression splits, plus depth-wise and leaf-wise (LightGBM-style) growth.
//
// A tree reads its training data from quantize-once bin codes (a
// BinnedMatrix, or any BinnedColumnSource such as a paged store): nodes
// accumulate histograms from the codes, packed so each feature spans only
// its own bins, and siblings reuse the parent's histogram via subtraction.
// Histograms accumulate feature-parallel on the thread pool when the tree is
// fitted from the top level (binary GBDT, the out-of-core forest); inside a
// forest's per-tree or a GBDT round's per-class pool block the same feature
// blocks run inline.
//
// Only the classifier fit takes the raw float matrix, as an optional second
// input (the resident forest). With it, nodes of at most `exact_split_max`
// rows take the exact sorted sweep and rows partition on floats. Without it,
// and in every regression (GBDT) fit, each split is a histogram split and
// rows partition stably on codes. Either way the thresholds are raw-float
// values and predict() walks them, so serving is the same code for every
// fit.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "core/splitmix.h"
#include "ml/matrix.h"

namespace sugar::ml {

class BinnedColumnSource;

/// splitmix64 finalizer over (ensemble seed, tree index): every tree of a
/// forest or boosted ensemble owns an independent, index-derived RNG
/// stream, so a parallel fit is exactly the sequential fit, reordered.
inline std::uint64_t tree_seed(std::uint64_t seed, std::uint64_t tree) {
  return core::splitmix64(seed + 0x9E3779B97F4A7C15ull * tree);
}

struct TreeConfig {
  int max_depth = 12;
  std::size_t min_samples_leaf = 2;
  /// 0 = depth-wise growth bounded by max_depth only; > 0 = best-first
  /// leaf-wise growth bounded by this leaf count (LightGBM style).
  int max_leaves = 0;
  /// Number of candidate features per split; 0 = all features.
  int features_per_split = 0;
  /// Bin count the ensembles quantize their codes with; a tree itself reads
  /// the bins of the codes it is given.
  int histogram_bins = 32;
  /// L2 regularization on leaf values (regression mode).
  float lambda = 1.0f;
  /// Classifier fits given the raw floats: nodes with at most this many
  /// samples use exact (sorted-sweep) split search instead of the shared
  /// histogram grid, for fine-grained thresholds (IP octets, sequence
  /// ranges) deep in the tree. Regression fits and fits without the floats
  /// treat it as 0.
  std::size_t exact_split_max = 1024;
  /// Derive the larger child's histogram from the parent's by subtracting
  /// the smaller child's (halves accumulation work per level). Only a test
  /// hook — the subtracted counts are exact for classification, so leaving
  /// it on is always correct.
  bool hist_subtraction = true;
};

class DecisionTree {
 public:
  /// Gini-impurity classification fit. `codes` are the training rows' bin
  /// codes; `raw`, when given, is the float matrix they were quantized from.
  /// Without `raw`, exact_split_max is forced to 0 and the row partition is
  /// STABLE on codes (`code <= split bin` <=> `value < cuts[bin]`), so a
  /// sorted row set stays sorted in every node and paged column access is
  /// monotone down the whole tree. `subset` optionally restricts the fit to
  /// a bag of row indices (with repetition allowed, for bootstrap).
  void fit_classifier(const BinnedColumnSource& codes, const Matrix* raw,
                      const std::vector<int>& y, int num_classes,
                      const TreeConfig& cfg, std::mt19937_64& rng,
                      const std::vector<std::uint32_t>* subset = nullptr);

  /// Second-order regression fit on per-row gradient/hessian (gradient
  /// boosting) over every row of `codes`. Leaf value = -G/(H+lambda). Codes
  /// only: every split is a histogram split and rows partition stably, as
  /// in fit_classifier without `raw`. `row_values[i]` receives training row
  /// i's leaf value, read off the fit's own row partition — which routes a
  /// row exactly as predict() does, so it equals predict_value(row i) bit
  /// for bit.
  void fit_regression(const BinnedColumnSource& codes,
                      const std::vector<float>& grad, const std::vector<float>& hess,
                      const TreeConfig& cfg, std::mt19937_64& rng,
                      std::vector<float>& row_values);

  [[nodiscard]] int predict_class(const float* row) const;
  [[nodiscard]] float predict_value(const float* row) const;

  /// Total split gain attributed to each feature (unnormalized).
  [[nodiscard]] const std::vector<double>& feature_importance() const {
    return importance_;
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] int depth() const;

 private:
  struct Node {
    int feature = -1;  // -1 => leaf
    float threshold = 0;
    int left = -1, right = -1;
    float value = 0;  // regression output
    int cls = 0;      // classification output
  };

  struct BuildContext;
  void build(BuildContext& ctx);
  int leaf_index(const float* row) const;

  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

/// Per-feature split gain summed over an ensemble's trees and normalized to
/// sum to 1 (all zeros if no tree split); empty for an empty ensemble.
[[nodiscard]] std::vector<double> ensemble_importance(
    const std::vector<DecisionTree>& trees);

}  // namespace sugar::ml
