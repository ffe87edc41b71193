#include "replearn/mae_encoder.h"

#include "core/trace.h"

#include <numeric>
#include <random>

namespace sugar::replearn {
namespace {

std::vector<std::size_t> enc_dims(const MaeEncoderConfig& cfg) {
  std::vector<std::size_t> d{cfg.input_dim};
  d.insert(d.end(), cfg.hidden.begin(), cfg.hidden.end());
  d.push_back(cfg.embed_dim);
  return d;
}

std::vector<std::size_t> dec_dims(const MaeEncoderConfig& cfg) {
  std::vector<std::size_t> d{cfg.embed_dim};
  for (auto it = cfg.hidden.rbegin(); it != cfg.hidden.rend(); ++it) d.push_back(*it);
  d.push_back(cfg.input_dim);
  return d;
}

}  // namespace

MaeEncoder::MaeEncoder(MaeEncoderConfig cfg)
    : cfg_(std::move(cfg)),
      enc_(enc_dims(cfg_), cfg_.seed),
      dec_(dec_dims(cfg_), cfg_.seed ^ 0xDEC0DE) {}

std::size_t MaeEncoder::param_count() const {
  return enc_.param_count() + dec_.param_count();
}

void pretrain_reconstruction(ml::MlpNet& enc, ml::MlpNet& dec, const ml::Matrix& x,
                             const PretrainOptions& opts, float mask_fraction,
                             const char* where) {
  std::mt19937_64 rng(opts.seed);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  std::vector<std::size_t> order(x.rows());
  std::iota(order.begin(), order.end(), 0);

  // Batch scratch hoisted out of the loops; the nets' activations live in
  // their arenas, so steady-state batches allocate nothing. The mask draws
  // follow each epoch's shuffle on the same stream.
  ml::Matrix target, masked, grad;
  auto step = [&](std::span<const std::size_t> idx) {
    x.take_rows_into(idx, target);
    masked.copy_from(target);
    for (auto& v : masked.data())
      if (unit(rng) < mask_fraction) v = 0.0f;
    enc.zero_grad();
    dec.zero_grad();
    ml::Matrix& emb = enc.forward(masked, /*training=*/true);
    ml::Matrix& recon = dec.forward(emb, /*training=*/true);
    const float loss = ml::mse_loss(recon, target, grad);
    enc.backward(dec.backward(grad));
    dec.adam_step(opts.learning_rate);
    enc.adam_step(opts.learning_rate);
    return loss;
  };
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    SUGAR_TRACE_SPAN("replearn.pretrain.epoch");
    SUGAR_TRACE_COUNT("ml.pretrain_epochs", 1);
    ml::train_epoch(order, opts.batch_size, rng, opts.cancel, where, epoch, step);
  }
}

void MaeEncoder::pretrain(const ml::Matrix& x, const PretrainOptions& opts) {
  SUGAR_TRACE_SPAN("replearn.pretrain.mae");
  pretrain_reconstruction(enc_, dec_, x, opts, kMaeMaskFraction,
                          "MaeEncoder::pretrain");
}

ml::Matrix MaeEncoder::embed(const ml::Matrix& x, bool training) {
  return enc_.forward(x, training);
}

void MaeEncoder::backward_into(const ml::Matrix& grad_embedding) {
  enc_.backward(grad_embedding);
}

void MaeEncoder::zero_grad() { enc_.zero_grad(); }

void MaeEncoder::adam_step(float lr) { enc_.adam_step(lr); }

std::unique_ptr<Encoder> MaeEncoder::clone() const {
  return std::make_unique<MaeEncoder>(*this);
}

void MaeEncoder::reinitialize(std::uint64_t seed) {
  MaeEncoderConfig cfg = cfg_;
  cfg.seed = seed;
  enc_ = ml::MlpNet(enc_dims(cfg), cfg.seed);
  dec_ = ml::MlpNet(dec_dims(cfg), cfg.seed ^ 0xDEC0DE);
}

float MaeEncoder::reconstruction_error(const ml::Matrix& x) {
  ml::Matrix& emb = enc_.forward(x, false);
  ml::Matrix& recon = dec_.forward(emb, false);
  ml::Matrix grad;
  return ml::mse_loss(recon, x, grad);
}

}  // namespace sugar::replearn
