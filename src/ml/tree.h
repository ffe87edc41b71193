// Histogram-based CART decision trees, the building block for the Random
// Forest and gradient-boosting baselines of Table 8. One implementation
// supports both Gini classification splits and second-order (XGBoost-style)
// regression splits, plus depth-wise and leaf-wise (LightGBM-style) growth.
//
// Two large-node split engines share the sweep code:
//  - the pre-binned path: a BinnedMatrix (or any BinnedColumnSource)
//    quantized once per dataset supplies uint8 bin codes, and siblings reuse
//    the parent's histogram via subtraction (fit with `binned != nullptr`).
//    Per-node histograms accumulate feature-parallel on the thread pool
//    when the tree is fitted from the top level (binary GBDT, the
//    out-of-core forest); inside a forest's per-tree or a GBDT round's
//    per-class pool block the same feature blocks run inline;
//  - the legacy per-tree path: cut points are re-derived per fit and every
//    row is re-binned by binary search at every node (no `binned`). Kept
//    for standalone single-tree fits and as the --tree-compare baseline.
// Nodes at or below `exact_split_max` rows (default 1024) always use the
// exact sorted-sweep search on raw floats, and predict() walks raw-float
// thresholds, so serving is identical under either engine.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "ml/matrix.h"

namespace sugar::ml {

class BinnedMatrix;
class BinnedColumnSource;

/// splitmix64 finalizer over (ensemble seed, tree index): every tree of a
/// forest or boosted ensemble owns an independent, index-derived RNG
/// stream, so a parallel fit is exactly the sequential fit, reordered.
inline std::uint64_t tree_seed(std::uint64_t seed, std::uint64_t tree) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (tree + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct TreeConfig {
  int max_depth = 12;
  std::size_t min_samples_leaf = 2;
  /// 0 = depth-wise growth bounded by max_depth only; > 0 = best-first
  /// leaf-wise growth bounded by this leaf count (LightGBM style).
  int max_leaves = 0;
  /// Number of candidate features per split; 0 = all features.
  int features_per_split = 0;
  /// Histogram resolution for split finding.
  int histogram_bins = 32;
  /// L2 regularization on leaf values (regression mode).
  float lambda = 1.0f;
  /// Minimum gain to accept a split.
  float min_gain = 1e-7f;
  /// Nodes with at most this many samples use exact (sorted-sweep) split
  /// search instead of the shared histogram grid — crucial for composing
  /// fine-grained thresholds (IP octets, sequence ranges) deep in the tree.
  std::size_t exact_split_max = 1024;
  /// Pre-binned path only: derive the larger child's histogram from the
  /// parent's by subtracting the smaller child's (halves accumulation work
  /// per level). Only a test hook — the subtracted counts are exact for
  /// classification, so leaving it on is always correct.
  bool hist_subtraction = true;
};

class DecisionTree {
 public:
  /// Gini-impurity classification fit. `subset` optionally restricts to a
  /// bag of row indices (with repetition allowed, for bootstrap). When
  /// `binned` is set (a BinnedMatrix quantized from the same `x`), large
  /// nodes accumulate histograms from its bin codes instead of re-binning
  /// by binary search, and no per-tree cut points are derived.
  void fit_classifier(const Matrix& x, const std::vector<int>& y, int num_classes,
                      const TreeConfig& cfg, std::mt19937_64& rng,
                      const std::vector<std::uint32_t>* subset = nullptr,
                      const BinnedMatrix* binned = nullptr);

  /// Second-order regression fit on per-sample gradient/hessian (gradient
  /// boosting). Leaf value = -G/(H+lambda). `binned` as in fit_classifier.
  void fit_regression(const Matrix& x, const std::vector<float>& grad,
                      const std::vector<float>& hess, const TreeConfig& cfg,
                      std::mt19937_64& rng,
                      const std::vector<std::uint32_t>* subset = nullptr,
                      const BinnedMatrix* binned = nullptr);

  /// Out-of-core fits: codes come from a BinnedColumnSource (resident or
  /// paged), the raw float matrix is never touched. Every split is a
  /// histogram split (exact_split_max is forced to 0), the partition runs
  /// on bin codes (`code <= split bin` ≡ `value < cuts[bin]`), and it is
  /// STABLE — so a sorted row set stays sorted in every node and paged
  /// column access is monotone down the whole tree. Thresholds are still
  /// the raw-float cut values, so predict() works unchanged.
  void fit_classifier_binned(const BinnedColumnSource& src,
                             const std::vector<int>& y, int num_classes,
                             const TreeConfig& cfg, std::mt19937_64& rng,
                             const std::vector<std::uint32_t>* subset = nullptr);
  void fit_regression_binned(const BinnedColumnSource& src,
                             const std::vector<float>& grad,
                             const std::vector<float>& hess,
                             const TreeConfig& cfg, std::mt19937_64& rng,
                             const std::vector<std::uint32_t>* subset = nullptr);

  [[nodiscard]] int predict_class(const float* row) const;
  [[nodiscard]] float predict_value(const float* row) const;

  /// Regression outputs for every row of `src`, computed by walking the
  /// tree level-by-level on bin codes (only valid for trees whose every
  /// split is a histogram split, i.e. fitted via fit_*_binned). `out` is
  /// resized to src.rows(). The GBDT margin update's out-of-core
  /// replacement for per-row predict_value.
  void predict_value_binned(const BinnedColumnSource& src,
                            std::vector<float>& out) const;

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
    /// Histogram splits also record the bin the threshold came from
    /// (threshold == cuts[bin]); -1 for exact-search splits. Lets the
    /// out-of-core paths partition and traverse on uint8 codes.
    int bin = -1;
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

}  // namespace sugar::ml
