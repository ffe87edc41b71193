// Downstream classification: a two-layer MLP head on top of an Encoder,
// trainable with the encoder frozen (head sees fixed embeddings — the
// paper's recommended probe of representation quality) or unfrozen
// (gradients flow through the encoder — the end-to-end regime in which
// prior work unknowingly re-trained their models onto shortcuts).
#pragma once

#include <memory>

#include "ml/metrics.h"
#include "ml/nn.h"
#include "replearn/encoder.h"

namespace sugar::replearn {

struct DownstreamConfig {
  bool frozen = true;
  int epochs = 15;
  std::size_t batch_size = 48;
  /// Frozen training uses a larger head LR (the paper: 2e-3 frozen vs 2e-5
  /// unfrozen for ET-BERT); unfrozen uses a smaller LR on the encoder.
  float lr_head = 2e-3f;
  float lr_encoder = 1e-3f;
  std::uint64_t seed = 41;

  /// Early stopping (the paper's protocol for TrafficFormer/netFound):
  /// a validation share is held out of the training set, training stops
  /// after 4 epochs without a validation gain, and the weights of the best
  /// validation epoch are restored at the end.
  double validation_fraction = 0.15;
  /// When true, validation holds out whole flows (the honest policy used
  /// with the per-flow split); when false, it holds out random samples
  /// (what per-packet-split pipelines effectively did).
  bool flow_holdout_validation = true;

  /// Polled at batch granularity; fit() throws ml::CancelledError when set
  /// (the supervisor's watchdog deadline).
  const ml::CancelToken* cancel = nullptr;
};

/// Encoder + head pair trained for one downstream task.
class DownstreamModel {
 public:
  DownstreamModel(std::unique_ptr<Encoder> encoder, int num_classes,
                  DownstreamConfig cfg);

  /// `groups` optionally provides a flow id per sample for flow-holdout
  /// validation; pass an empty vector for sample-level holdout.
  void fit(const ml::Matrix& x, const std::vector<int>& y,
           const std::vector<int>& groups = {});
  [[nodiscard]] std::vector<int> predict(const ml::Matrix& x);

  /// Embeddings under the current encoder weights (Figure 4's analysis).
  [[nodiscard]] ml::Matrix embeddings(const ml::Matrix& x);

  [[nodiscard]] Encoder& encoder() { return *encoder_; }
  [[nodiscard]] const DownstreamConfig& config() const { return cfg_; }

 private:
  std::unique_ptr<Encoder> encoder_;
  ml::MlpNet head_;
  DownstreamConfig cfg_;
  int num_classes_;
};

}  // namespace sugar::replearn
