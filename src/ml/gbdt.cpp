#include "ml/gbdt.h"

#include <algorithm>
#include <cmath>

#include "core/threadpool.h"
#include "core/trace.h"
#include "ml/binned.h"

namespace sugar::ml {

void GradientBoosting::fit(const Matrix& x, const std::vector<int>& y,
                           int num_classes) {
  SUGAR_TRACE_SPAN("ml.gbdt.fit");
  fit_binned(BinnedMatrix(x, cfg_.tree.histogram_bins), y, num_classes);
}

void GradientBoosting::fit_binned(const BinnedColumnSource& codes,
                                  const std::vector<int>& y, int num_classes) {
  SUGAR_TRACE_SPAN("ml.gbdt.fit_binned");
  const std::size_t n = codes.rows();
  const char* where = "GradientBoosting::fit_binned";
  num_classes_ = num_classes;
  num_outputs_ = num_classes <= 2 ? 1 : num_classes;
  const auto outs = static_cast<std::size_t>(num_outputs_);

  TreeConfig tree_cfg = cfg_.tree;
  if (cfg_.growth == GbdtGrowth::LeafWise && tree_cfg.max_leaves == 0)
    tree_cfg.max_leaves = 31;

  int rounds = cfg_.rounds;
  if (cfg_.max_total_trees > 0 && rounds * num_outputs_ > cfg_.max_total_trees)
    rounds = std::max(3, cfg_.max_total_trees / num_outputs_);
  rounds_used_ = rounds;

  // Per output k: its margin column F_k, its grad/hess scratch, the tree
  // being fitted and that tree's outputs on the training rows. A round's
  // class trees fit concurrently, each block touching only its own entry.
  struct ClassState {
    std::vector<float> margin, grad, hess, out;
    DecisionTree tree;
  };
  const std::vector<float> zeros(n, 0.0f);
  std::vector<ClassState> cls(outs, ClassState{zeros, zeros, zeros, zeros, {}});
  Matrix probs(n, outs);  // link-function scratch, refilled every round
  trees_.clear();
  trees_.reserve(static_cast<std::size_t>(rounds) * outs);

  for (int r = 0; r < rounds; ++r) {
    SUGAR_TRACE_SPAN("ml.gbdt.round");
    throw_if_cancelled(cfg_.cancel, where);
    for (std::size_t k = 0; k < outs; ++k)
      for (std::size_t i = 0; i < n; ++i) probs(i, k) = cls[k].margin[i];
    if (outs == 1) {
      for (float& p : probs.data()) p = 1.0f / (1.0f + std::exp(-p));  // logistic
    } else {
      softmax_rows(probs);
    }
    // Given this round's probabilities the class trees are independent: one
    // grain-1 block per class with its own RNG stream, so the fit is the
    // serial one at any pool width. A binary round is a single block run
    // inline, which leaves the pool to the histogram inside its tree.
    core::global_pool().parallel_for(0, outs, 1, [&](std::size_t k0, std::size_t k1) {
      for (std::size_t k = k0; k < k1; ++k) {
        SUGAR_TRACE_SPAN("ml.gbdt.tree");
        throw_if_cancelled(cfg_.cancel, where);
        ClassState& c = cls[k];
        const int positive = outs == 1 ? 1 : static_cast<int>(k);
        for (std::size_t i = 0; i < n; ++i) {
          const float p = probs(i, k);
          c.grad[i] = p - (y[i] == positive ? 1.0f : 0.0f);
          c.hess[i] = std::max(p * (1.0f - p), 1e-6f);
        }
        std::mt19937_64 rng(tree_seed(cfg_.seed, static_cast<std::size_t>(r) * outs + k));
        c.tree.fit_regression(codes, c.grad, c.hess, tree_cfg, rng, c.out);
        for (std::size_t i = 0; i < n; ++i) c.margin[i] += cfg_.learning_rate * c.out[i];
      }
    });
    // Only whole rounds land in the model, in class order.
    for (ClassState& c : cls) trees_.push_back(std::move(c.tree));
    SUGAR_TRACE_COUNT("ml.trees_fit", outs);
  }
}

Matrix GradientBoosting::decision_function(const Matrix& x) const {
  SUGAR_TRACE_SPAN("ml.gbdt.predict");
  const auto outs = static_cast<std::size_t>(std::max(num_outputs_, 1));
  Matrix scores(x.rows(), outs);
  // Rows are independent; every (row, class) still sums its trees in
  // ascending order, so the scores are bit-identical at any pool width.
  core::global_pool().parallel_for(0, x.rows(), 64, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t t = 0; t < trees_.size(); ++t)
      for (std::size_t i = r0; i < r1; ++i)
        scores(i, t % outs) += cfg_.learning_rate * trees_[t].predict_value(x.row(i));
  });
  return scores;
}

std::vector<int> GradientBoosting::predict(const Matrix& x) const {
  Matrix scores = decision_function(x);
  if (num_outputs_ != 1) return argmax_rows(scores);
  std::vector<int> out(x.rows(), 0);
  for (std::size_t i = 0; i < x.rows(); ++i) out[i] = scores(i, 0) > 0 ? 1 : 0;
  return out;
}

std::vector<double> GradientBoosting::feature_importance() const {
  return ensemble_importance(trees_);
}

}  // namespace sugar::ml
