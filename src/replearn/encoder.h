// The Encoder abstraction: a pre-trainable embedding model whose downstream
// training can run frozen (head only) or unfrozen (gradients flow back
// through the encoder) — the switch at the centre of the paper's analysis.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ml/guard.h"
#include "ml/matrix.h"

namespace sugar::replearn {

struct PretrainOptions {
  int epochs = 4;
  std::size_t batch_size = 64;
  float learning_rate = 1e-3f;
  std::uint64_t seed = 97;
  /// Polled at batch granularity inside pre-training loops; pretrain()
  /// throws ml::CancelledError when set (watchdog deadline).
  const ml::CancelToken* cancel = nullptr;
};

class Encoder {
 public:
  virtual ~Encoder() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::size_t input_dim() const = 0;
  [[nodiscard]] virtual std::size_t embed_dim() const = 0;
  [[nodiscard]] virtual std::size_t param_count() const = 0;

  /// Self-supervised pre-training on an unlabelled input matrix.
  virtual void pretrain(const ml::Matrix& x, const PretrainOptions& opts) = 0;

  /// Optional supervised pretext phase (Pcap-Encoder Q&A); default no-op.
  virtual void pretrain_supervised(const ml::Matrix& x, const ml::Matrix& targets,
                                   const PretrainOptions& opts) {
    (void)x;
    (void)targets;
    (void)opts;
  }

  /// Embeds a batch. When `training`, activations are cached so
  /// backward_into() can propagate gradients (the unfrozen path).
  virtual ml::Matrix embed(const ml::Matrix& x, bool training) = 0;

  /// Unfrozen fine-tuning: accept dL/d(embedding) from the head.
  virtual void backward_into(const ml::Matrix& grad_embedding) = 0;
  virtual void zero_grad() = 0;
  virtual void adam_step(float lr) = 0;

  /// Fresh deep copy so each scenario fine-tunes from the same pre-trained
  /// weights.
  [[nodiscard]] virtual std::unique_ptr<Encoder> clone() const = 0;

  /// Re-initializes all weights randomly (Table 6 "w/o Pre-training").
  virtual void reinitialize(std::uint64_t seed) = 0;
};

}  // namespace sugar::replearn
