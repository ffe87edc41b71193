#include "ml/forest.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "core/threadpool.h"
#include "core/trace.h"
#include "ml/binned.h"

namespace sugar::ml {

void RandomForest::fit(const Matrix& x, const std::vector<int>& y, int num_classes) {
  SUGAR_TRACE_SPAN("ml.forest.fit");
  // Quantize once per fit, before the per-tree loop so quantization itself
  // parallelizes: every tree shares the same bin codes and cut points.
  grow(BinnedMatrix(x, cfg_.tree.histogram_bins), &x, y, num_classes);
}

void RandomForest::fit_binned(const BinnedColumnSource& src,
                              const std::vector<int>& y, int num_classes) {
  SUGAR_TRACE_SPAN("ml.forest.fit_binned");
  grow(src, nullptr, y, num_classes);
}

void RandomForest::grow(const BinnedColumnSource& codes, const Matrix* raw,
                        const std::vector<int>& y, int num_classes) {
  num_classes_ = num_classes;
  trees_.assign(static_cast<std::size_t>(cfg_.num_trees), {});
  SUGAR_TRACE_COUNT("ml.trees_fit", trees_.size());

  TreeConfig tree_cfg = cfg_.tree;
  if (tree_cfg.features_per_split == 0)
    tree_cfg.features_per_split = std::max(
        1, static_cast<int>(std::sqrt(static_cast<double>(codes.cols()))));

  // Each tree's bootstrap bag draws n rows with replacement.
  const std::size_t n = codes.rows();
  const char* where = raw ? "RandomForest::fit" : "RandomForest::fit_binned";

  auto fit_tree = [&](std::size_t t) {
    throw_if_cancelled(cfg_.cancel, where);
    std::mt19937_64 rng(tree_seed(cfg_.seed, t));
    std::uniform_int_distribution<std::size_t> pick(0, n == 0 ? 0 : n - 1);
    std::vector<std::uint32_t> rows(n);
    for (auto& r : rows) r = static_cast<std::uint32_t>(pick(rng));
    std::sort(rows.begin(), rows.end());
    trees_[t].fit_classifier(codes, raw, y, num_classes, tree_cfg, rng, &rows);
  };
  // Resident: one pool block per tree. Out of core: serial trees, so only
  // one n-row bag and its partition copy are alive at a time (concurrent
  // trees would multiply that, and the page cache's working set, by the
  // pool width); the pool still runs each tree's histogram features.
  if (raw) {
    core::global_pool().parallel_for(
        0, trees_.size(), 1, [&](std::size_t t0, std::size_t t1) {
          for (std::size_t t = t0; t < t1; ++t) fit_tree(t);
        });
  } else {
    for (std::size_t t = 0; t < trees_.size(); ++t) fit_tree(t);
  }
}

std::vector<int> RandomForest::predict(const Matrix& x) const {
  SUGAR_TRACE_SPAN("ml.forest.predict");
  std::vector<int> out(x.rows(), 0);
  core::global_pool().parallel_for(
      0, x.rows(), 64, [&](std::size_t r0, std::size_t r1) {
        for (std::size_t i = r0; i < r1; ++i) out[i] = vote(x.row(i));
      });
  return out;
}

int RandomForest::vote(const float* row) const {
  // Per-thread tally; reallocates only for a forest with more classes.
  thread_local std::vector<int> votes;
  votes.assign(static_cast<std::size_t>(num_classes_), 0);
  for (const auto& tree : trees_)
    ++votes[static_cast<std::size_t>(tree.predict_class(row))];
  return static_cast<int>(std::max_element(votes.begin(), votes.end()) -
                          votes.begin());
}

std::vector<double> RandomForest::feature_importance() const {
  return ensemble_importance(trees_);
}

std::vector<std::pair<std::string, double>> ranked_importance(
    const std::vector<double>& importance, const std::vector<std::string>& names) {
  std::vector<std::pair<std::string, double>> out;
  for (std::size_t i = 0; i < importance.size(); ++i)
    out.emplace_back(i < names.size() ? names[i] : "f" + std::to_string(i),
                     importance[i]);
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

}  // namespace sugar::ml
