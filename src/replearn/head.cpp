#include "replearn/head.h"

#include "core/trace.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <unordered_set>

namespace sugar::replearn {
namespace {

/// Width of the head's one hidden layer (the paper's two-layer MLP head).
constexpr std::size_t kHeadHidden = 128;
/// Epochs without a validation gain before early stopping.
constexpr int kPatience = 4;

}  // namespace

DownstreamModel::DownstreamModel(std::unique_ptr<Encoder> encoder, int num_classes,
                                 DownstreamConfig cfg)
    : encoder_(std::move(encoder)),
      head_({encoder_->embed_dim(), kHeadHidden, static_cast<std::size_t>(num_classes)},
            cfg.seed),
      cfg_(cfg),
      num_classes_(num_classes) {}

void DownstreamModel::fit(const ml::Matrix& x, const std::vector<int>& y,
                          const std::vector<int>& groups) {
  SUGAR_TRACE_SPAN("replearn.fit");
  std::mt19937_64 rng(cfg_.seed ^ 0x7EAD);

  // --- Hold out a validation share: whole flows (honest) or random samples.
  std::vector<std::size_t> train_idx, val_idx;
  if (cfg_.validation_fraction > 0 && x.rows() > 40) {
    if (cfg_.flow_holdout_validation && groups.size() == x.rows()) {
      std::vector<int> flow_ids(groups);
      std::sort(flow_ids.begin(), flow_ids.end());
      flow_ids.erase(std::unique(flow_ids.begin(), flow_ids.end()), flow_ids.end());
      std::shuffle(flow_ids.begin(), flow_ids.end(), rng);
      std::size_t n_val_flows = std::max<std::size_t>(
          1, static_cast<std::size_t>(cfg_.validation_fraction *
                                      static_cast<double>(flow_ids.size())));
      std::unordered_set<int> val_flows(flow_ids.begin(),
                                        flow_ids.begin() + static_cast<std::ptrdiff_t>(n_val_flows));
      for (std::size_t i = 0; i < x.rows(); ++i)
        (val_flows.count(groups[i]) ? val_idx : train_idx).push_back(i);
    } else {
      std::vector<std::size_t> order(x.rows());
      std::iota(order.begin(), order.end(), 0);
      std::shuffle(order.begin(), order.end(), rng);
      std::size_t n_val = static_cast<std::size_t>(
          cfg_.validation_fraction * static_cast<double>(order.size()));
      val_idx.assign(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(n_val));
      train_idx.assign(order.begin() + static_cast<std::ptrdiff_t>(n_val), order.end());
    }
  }
  if (train_idx.empty()) {
    train_idx.resize(x.rows());
    std::iota(train_idx.begin(), train_idx.end(), 0);
    val_idx.clear();
  }

  ml::Matrix x_val;
  std::vector<int> y_val;
  if (!val_idx.empty()) {
    x_val = x.take_rows(val_idx);
    y_val.reserve(val_idx.size());
    for (std::size_t i : val_idx) y_val.push_back(y[i]);
  }

  // Frozen path: embeddings never change, so compute them once.
  ml::Matrix frozen_emb;
  if (cfg_.frozen) frozen_emb = encoder_->embed(x, /*training=*/false);

  auto validation_accuracy = [&]() -> double {
    if (val_idx.empty()) return 0.0;
    ml::Matrix emb = cfg_.frozen ? frozen_emb.take_rows(val_idx)
                                 : encoder_->embed(x_val, false);
    const std::vector<int> pred = ml::argmax_rows(head_.forward(emb, false));
    std::size_t correct = 0;
    for (std::size_t i = 0; i < pred.size(); ++i) correct += pred[i] == y_val[i];
    return static_cast<double>(correct) / static_cast<double>(pred.size());
  };

  double best_val = -1.0;
  int stall = 0;
  ml::MlpNet best_head;
  std::unique_ptr<Encoder> best_encoder;

  // Batch scratch hoisted out of the epoch loop. `xb` and `emb` must
  // outlive each backward pass: the nets cache their training inputs by
  // pointer, so feeding a temporary to embed(..., true) would dangle.
  std::vector<int> yb;
  ml::Matrix xb, emb, grad;
  auto step = [&](std::span<const std::size_t> idx) {
    yb.resize(idx.size());
    for (std::size_t i = 0; i < idx.size(); ++i) yb[i] = y[idx[i]];
    if (cfg_.frozen) {
      frozen_emb.take_rows_into(idx, emb);
    } else {
      x.take_rows_into(idx, xb);
      emb = encoder_->embed(xb, true);
    }
    head_.zero_grad();
    ml::Matrix& logits = head_.forward(emb, true);
    const float loss = ml::softmax_cross_entropy(logits, yb, grad);
    ml::Matrix& grad_emb = head_.backward(grad);
    head_.adam_step(cfg_.lr_head);
    if (!cfg_.frozen) {
      encoder_->zero_grad();
      encoder_->backward_into(grad_emb);
      encoder_->adam_step(cfg_.lr_encoder);
    }
    return loss;
  };
  for (int epoch = 0; epoch < cfg_.epochs; ++epoch) {
    SUGAR_TRACE_SPAN("replearn.fit.epoch");
    const std::size_t allocs_before = head_.arena().heap_allocations();
    ml::train_epoch(train_idx, cfg_.batch_size, rng, cfg_.cancel,
                    "DownstreamModel::fit", epoch, step);
    SUGAR_TRACE_COUNT("ml.epochs", 1);
    SUGAR_TRACE_COUNT("ml.arena_growths",
                      head_.arena().heap_allocations() - allocs_before);

    if (!val_idx.empty()) {
      double acc = validation_accuracy();
      if (acc > best_val + 1e-9) {
        best_val = acc;
        stall = 0;
        best_head = head_;
        if (!cfg_.frozen) best_encoder = encoder_->clone();
      } else if (++stall >= kPatience) {
        break;
      }
    }
  }

  // Restore the best validation epoch.
  if (best_val >= 0) {
    head_ = std::move(best_head);
    if (best_encoder) encoder_ = std::move(best_encoder);
  }
}

std::vector<int> DownstreamModel::predict(const ml::Matrix& x) {
  SUGAR_TRACE_SPAN("replearn.predict");
  ml::Matrix emb = encoder_->embed(x, false);
  return ml::argmax_rows(head_.forward(emb, false));
}

ml::Matrix DownstreamModel::embeddings(const ml::Matrix& x) {
  return encoder_->embed(x, false);
}

}  // namespace sugar::replearn
