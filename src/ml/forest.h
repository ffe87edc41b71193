// Random Forest classifier with Gini feature importances — the shallow
// baseline that, per the paper's Table 8 and Figure 5, beats every
// representation-learning model on hand-crafted header features while being
// orders of magnitude cheaper. Trees are fitted and evaluated in parallel
// on the shared core::ThreadPool; each tree draws from its own seeded RNG
// stream, so the forest is bit-identical at any SUGAR_THREADS value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ml/guard.h"
#include "ml/tree.h"

namespace sugar::ml {

struct ForestConfig {
  int num_trees = 40;
  TreeConfig tree;
  std::uint64_t seed = 17;
  /// Polled once per tree (on whichever pool thread fits it); fit()
  /// rethrows the resulting CancelledError on the calling thread.
  const CancelToken* cancel = nullptr;

  ForestConfig() {
    tree.max_depth = 20;
    tree.min_samples_leaf = 1;
    tree.features_per_split = 10;
    // High-resolution histograms at large nodes; exact sorted-sweep splits
    // below 4096 samples (IP octets and sequence ranges need fine
    // thresholds).
    tree.histogram_bins = 128;
    tree.exact_split_max = 4096;
  }
};

class BinnedColumnSource;

class RandomForest {
 public:
  explicit RandomForest(ForestConfig cfg = {}) : cfg_(cfg) {}

  /// Quantizes `x` once (ml::BinnedMatrix) and fits one tree per pool
  /// block from the shared codes, with the exact sweep at small nodes.
  void fit(const Matrix& x, const std::vector<int>& y, int num_classes);

  /// Out-of-core fit from pre-binned codes (a dataset::PagedCodeSource or
  /// any BinnedColumnSource): fit() without the raw floats. Histogram-only
  /// splits (exact_split_max forced to 0) make it a different estimator
  /// from fit(); it is bit-identical to ITSELF at any cache budget, page
  /// size or thread count. Trees are fitted SERIALLY — parallelism moves
  /// inside each tree's feature-wise histogram accumulation — so the paged
  /// working set stays one tree's bag, row partition and pages at a time.
  void fit_binned(const BinnedColumnSource& src, const std::vector<int>& y,
                  int num_classes);

  /// vote() on every row, one pool block per 64 rows.
  [[nodiscard]] std::vector<int> predict(const Matrix& x) const;

  /// Majority vote of the trees on one feature row, ties to the lowest
  /// class: the forest's only vote, behind predict(), the serve engine's
  /// classifier and the out-of-core evaluation. It allocates nothing after
  /// a thread's first call and never dispatches to the pool, so predict()'s
  /// pool blocks call it without nesting a dispatch, and a serve round on
  /// the pump thread pays only for the tree walks.
  [[nodiscard]] int vote(const float* row) const;

  /// Normalized (sums to 1) mean split-gain importance per feature.
  [[nodiscard]] std::vector<double> feature_importance() const;

 private:
  /// The loop behind fit() and fit_binned(): `raw` null means out of core.
  /// Each tree draws an index-derived bootstrap bag and SORTS it: class
  /// counts are integers held in doubles, so a bag's order cannot change a
  /// tree, and sorted bags keep paged column access monotone.
  void grow(const BinnedColumnSource& codes, const Matrix* raw,
            const std::vector<int>& y, int num_classes);

  ForestConfig cfg_;
  int num_classes_ = 0;
  std::vector<DecisionTree> trees_;
};

/// Pairs feature importances with names and sorts descending (Figure 5).
std::vector<std::pair<std::string, double>> ranked_importance(
    const std::vector<double>& importance, const std::vector<std::string>& names);

}  // namespace sugar::ml
