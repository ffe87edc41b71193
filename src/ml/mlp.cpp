#include "ml/mlp.h"

#include "core/trace.h"

#include <numeric>
#include <random>

namespace sugar::ml {

void MlpClassifier::fit(const Matrix& x, const std::vector<int>& y, int num_classes) {
  num_classes_ = num_classes;
  std::vector<std::size_t> dims;
  dims.push_back(x.cols());
  for (auto h : cfg_.hidden) dims.push_back(h);
  dims.push_back(static_cast<std::size_t>(num_classes));
  net_ = MlpNet(dims, cfg_.seed);

  std::mt19937_64 rng(cfg_.seed ^ 0xB00F);
  std::vector<std::size_t> order(x.rows());
  std::iota(order.begin(), order.end(), 0);

  // Batch scratch hoisted out of the loops: with the arena-backed net this
  // makes the steady-state epoch allocation-free.
  std::vector<int> yb;
  Matrix xb, grad;
  auto step = [&](std::span<const std::size_t> idx) {
    x.take_rows_into(idx, xb);
    yb.resize(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) yb[i] = y[idx[i]];
    net_.zero_grad();
    Matrix& logits = net_.forward(xb, /*training=*/true);
    const float loss = softmax_cross_entropy(logits, yb, grad);
    net_.backward(grad);
    net_.adam_step(cfg_.learning_rate);
    return loss;
  };
  SUGAR_TRACE_SPAN("ml.fit");
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    SUGAR_TRACE_SPAN("ml.fit.epoch");
    const std::size_t allocs_before = net_.arena().heap_allocations();
    train_epoch(order, cfg_.batch_size, rng, cfg_.cancel, "MlpClassifier::fit",
                epoch, step);
    SUGAR_TRACE_COUNT("ml.epochs", 1);
    SUGAR_TRACE_COUNT("ml.arena_growths",
                      net_.arena().heap_allocations() - allocs_before);
  }
}

Matrix MlpClassifier::predict_proba(const Matrix& x) const {
  SUGAR_TRACE_SPAN("ml.predict");
  Matrix logits = const_cast<MlpNet&>(net_).forward(x, /*training=*/false);
  softmax_rows(logits);
  return logits;
}

std::vector<int> MlpClassifier::predict(const Matrix& x) const {
  // The argmax runs over the probabilities, not the logits: softmax rounding
  // can tie two close logits, and the tie goes to the lower class.
  return argmax_rows(predict_proba(x));
}

}  // namespace sugar::ml
