// The encoder shared by all six models: an ml::MlpNet stack that embeds a
// packet or flow view. The models differ only in their pretext task. The
// MAE-style encoders (ET-BERT, YaTC, NetMamba, TrafficFormer, netFound)
// learn to reconstruct randomly masked inputs; on encrypted payloads that
// objective is unsatisfiable by design, so their embeddings carry little
// task-relevant information. Pcap-Encoder (the paper's own proposal, §3.4)
// is the encoder with a header Q&A head: it auto-encodes header bytes, then
// regresses the answers to questions about header semantics (Table 10).
// Downstream training runs the encoder frozen (head only) or unfrozen
// (gradients flow back through it), the switch at the centre of the
// paper's analysis.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/guard.h"
#include "ml/nn.h"

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

/// Fraction of inputs MAE pre-training masks; an encoder with a Q&A head
/// masks half as many.
inline constexpr float kMaeMaskFraction = 0.3f;

struct EncoderConfig {
  std::string name = "MAE";
  std::size_t input_dim = 200;
  std::vector<std::size_t> hidden = {128};
  std::size_t embed_dim = 64;
  std::uint64_t seed = 11;
  /// Width of the header Q&A head; 0 for none. An encoder with one
  /// (Pcap-Encoder) has a one-hidden-layer decoder, masks half as many
  /// inputs and pre-trains a second, Q&A phase.
  std::size_t qa_dim = 0;
  /// Table 11 ablation: which pre-training phases run.
  bool autoencoder_phase = true;
  bool qa_phase = true;
};

class Encoder {
 public:
  explicit Encoder(EncoderConfig cfg);

  [[nodiscard]] const EncoderConfig& config() const { return cfg_; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] std::size_t input_dim() const { return cfg_.input_dim; }
  [[nodiscard]] std::size_t embed_dim() const { return cfg_.embed_dim; }
  [[nodiscard]] bool has_qa_head() const { return cfg_.qa_dim > 0; }
  /// Encoder, decoder and Q&A head weights.
  [[nodiscard]] std::size_t param_count() const;

  /// Self-supervised masked reconstruction on an unlabelled input matrix:
  /// each input value is zeroed with probability kMaeMaskFraction (half
  /// that with a Q&A head) and encoder plus decoder learn, by MSE, to
  /// reproduce the unmasked batch.
  void pretrain(const ml::Matrix& x, const PretrainOptions& opts);

  /// Pcap-Encoder's Q&A phase: multi-task regression of the Q&A head onto
  /// the questions' normalized answers, with gradients flowing into the
  /// encoder. Runs three times as many epochs as pretrain(): the paper's
  /// ablation (Table 11) finds it the crucial phase.
  void pretrain_qa(const ml::Matrix& x, const ml::Matrix& targets,
                   const PretrainOptions& opts);

  /// Embeds a batch. When `training`, activations are cached so
  /// backward_into() can propagate gradients (the unfrozen path).
  ml::Matrix embed(const ml::Matrix& x, bool training);

  /// Unfrozen fine-tuning: accept dL/d(embedding) from the head.
  void backward_into(const ml::Matrix& grad_embedding);
  void zero_grad();
  void adam_step(float lr);

  /// Fresh deep copy so each scenario fine-tunes from the same pre-trained
  /// weights.
  [[nodiscard]] std::unique_ptr<Encoder> clone() const;

  /// Re-initializes all weights randomly (Table 6 "w/o Pre-training").
  void reinitialize(std::uint64_t seed);

  /// Reconstruction MSE on unmasked data (diagnostics / tests).
  float reconstruction_error(const ml::Matrix& x);

  /// Mean squared error of the Q&A head (the paper reports 98.2 % average
  /// accuracy on its question set; this is the analogous regression
  /// quality).
  float qa_error(const ml::Matrix& x, const ml::Matrix& targets);

 private:
  EncoderConfig cfg_;
  ml::MlpNet enc_;
  ml::MlpNet dec_;      // reconstruction head
  ml::MlpNet qa_head_;  // empty without a Q&A head
};

}  // namespace sugar::replearn
