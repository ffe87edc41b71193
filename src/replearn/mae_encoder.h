// Masked-autoencoder byte encoder: the laptop-scale analog of the MAE-style
// pre-training shared by ET-BERT, TrafficFormer, YaTC, NetMamba and
// netFound. Random input positions are masked and the encoder/decoder pair
// is trained to reconstruct the original bytes. On encrypted payloads this
// objective is unsatisfiable by design — reproducing the paper's point that
// the resulting embedding carries little task-relevant information.
#pragma once

#include "ml/nn.h"
#include "replearn/encoder.h"

namespace sugar::replearn {

/// Fraction of inputs MAE pre-training masks; Pcap-Encoder's auto-encoding
/// phase masks half as many.
inline constexpr float kMaeMaskFraction = 0.3f;

/// Masked reconstruction pre-training of an encoder/decoder pair: each
/// input value is zeroed with probability `mask_fraction` and the pair
/// learns, by MSE, to reproduce the unmasked batch. MAE pre-training and
/// Pcap-Encoder's auto-encoding phase (at half the mask rate) both run it.
void pretrain_reconstruction(ml::MlpNet& enc, ml::MlpNet& dec, const ml::Matrix& x,
                             const PretrainOptions& opts, float mask_fraction,
                             const char* where);

struct MaeEncoderConfig {
  std::string name = "MAE";
  std::size_t input_dim = 200;
  std::vector<std::size_t> hidden = {128};
  std::size_t embed_dim = 64;
  std::uint64_t seed = 11;
};

class MaeEncoder : public Encoder {
 public:
  explicit MaeEncoder(MaeEncoderConfig cfg);

  [[nodiscard]] std::string name() const override { return cfg_.name; }
  [[nodiscard]] std::size_t input_dim() const override { return cfg_.input_dim; }
  [[nodiscard]] std::size_t embed_dim() const override { return cfg_.embed_dim; }
  [[nodiscard]] std::size_t param_count() const override;

  void pretrain(const ml::Matrix& x, const PretrainOptions& opts) override;
  ml::Matrix embed(const ml::Matrix& x, bool training) override;
  void backward_into(const ml::Matrix& grad_embedding) override;
  void zero_grad() override;
  void adam_step(float lr) override;
  [[nodiscard]] std::unique_ptr<Encoder> clone() const override;
  void reinitialize(std::uint64_t seed) override;

  /// Reconstruction MSE on held-out data (diagnostics / tests).
  float reconstruction_error(const ml::Matrix& x);

 protected:
  MaeEncoderConfig cfg_;
  ml::MlpNet enc_;
  ml::MlpNet dec_;
};

}  // namespace sugar::replearn
