#include "replearn/encoder.h"

#include "core/trace.h"

#include <numeric>
#include <random>

namespace sugar::replearn {
namespace {

/// One pre-training phase: `epochs` minibatch epochs over `rows` samples in
/// which `enc` followed by `head` learns, by MSE, to map each batch's input
/// to its target. `fill(idx, input, target)` builds a batch; it may draw
/// from `rng` after the epoch's shuffle.
template <typename Fill>
void train_phase(ml::MlpNet& enc, ml::MlpNet& head, std::size_t rows, int epochs,
                 std::mt19937_64& rng, const PretrainOptions& opts, const char* where,
                 Fill&& fill) {
  std::vector<std::size_t> order(rows);
  std::iota(order.begin(), order.end(), 0);

  // Batch scratch hoisted out of the loops; the nets' activations live in
  // their arenas, so steady-state batches allocate nothing.
  ml::Matrix input, target, grad;
  auto step = [&](std::span<const std::size_t> idx) {
    fill(idx, input, target);
    enc.zero_grad();
    head.zero_grad();
    ml::Matrix& emb = enc.forward(input, /*training=*/true);
    ml::Matrix& pred = head.forward(emb, /*training=*/true);
    const float loss = ml::mse_loss(pred, target, grad);
    enc.backward(head.backward(grad));
    head.adam_step(opts.learning_rate);
    enc.adam_step(opts.learning_rate);
    return loss;
  };
  for (int epoch = 0; epoch < epochs; ++epoch) {
    SUGAR_TRACE_SPAN("replearn.pretrain.epoch");
    SUGAR_TRACE_COUNT("ml.pretrain_epochs", 1);
    ml::train_epoch(order, opts.batch_size, rng, opts.cancel, where, epoch, step);
  }
}

}  // namespace

Encoder::Encoder(EncoderConfig cfg) : cfg_(std::move(cfg)) { reinitialize(cfg_.seed); }

std::size_t Encoder::param_count() const {
  return enc_.param_count() + dec_.param_count() + qa_head_.param_count();
}

void Encoder::pretrain(const ml::Matrix& x, const PretrainOptions& opts) {
  if (!cfg_.autoencoder_phase) return;
  SUGAR_TRACE_SPAN(has_qa_head() ? "replearn.pretrain.pcap_ae" : "replearn.pretrain.mae");
  const float mask_fraction = has_qa_head() ? kMaeMaskFraction * 0.5f : kMaeMaskFraction;
  std::mt19937_64 rng(opts.seed);
  std::uniform_real_distribution<float> unit(0.0f, 1.0f);
  train_phase(enc_, dec_, x.rows(), opts.epochs, rng, opts, "Encoder::pretrain",
              [&](std::span<const std::size_t> idx, ml::Matrix& masked,
                  ml::Matrix& target) {
                x.take_rows_into(idx, target);
                masked.copy_from(target);
                for (auto& v : masked.data())
                  if (unit(rng) < mask_fraction) v = 0.0f;
              });
}

void Encoder::pretrain_qa(const ml::Matrix& x, const ml::Matrix& targets,
                          const PretrainOptions& opts) {
  ml::check_internal(has_qa_head(), "Encoder::pretrain_qa: the encoder has no Q&A head");
  if (!cfg_.qa_phase) return;
  SUGAR_TRACE_SPAN("replearn.pretrain.pcap_qa");
  std::mt19937_64 rng(opts.seed ^ 0x2222);
  train_phase(enc_, qa_head_, x.rows(), opts.epochs * 3, rng, opts, "Encoder::pretrain_qa",
              [&](std::span<const std::size_t> idx, ml::Matrix& input,
                  ml::Matrix& target) {
                x.take_rows_into(idx, input);
                targets.take_rows_into(idx, target);
              });
}

ml::Matrix Encoder::embed(const ml::Matrix& x, bool training) {
  return enc_.forward(x, training);
}

void Encoder::backward_into(const ml::Matrix& grad_embedding) {
  enc_.backward(grad_embedding);
}

void Encoder::zero_grad() { enc_.zero_grad(); }

void Encoder::adam_step(float lr) { enc_.adam_step(lr); }

std::unique_ptr<Encoder> Encoder::clone() const { return std::make_unique<Encoder>(*this); }

void Encoder::reinitialize(std::uint64_t seed) {
  std::vector<std::size_t> dims{cfg_.input_dim};
  dims.insert(dims.end(), cfg_.hidden.begin(), cfg_.hidden.end());
  dims.push_back(cfg_.embed_dim);
  enc_ = ml::MlpNet(dims, seed);
  if (has_qa_head()) {
    dec_ = ml::MlpNet({cfg_.embed_dim, cfg_.hidden.back(), cfg_.input_dim}, seed ^ 0xAE);
    qa_head_ = ml::MlpNet({cfg_.embed_dim, 64, cfg_.qa_dim}, seed ^ 0x9A);
  } else {
    // The MAE decoder mirrors the encoder.
    dec_ = ml::MlpNet(std::vector<std::size_t>(dims.rbegin(), dims.rend()), seed ^ 0xDEC0DE);
  }
}

float Encoder::reconstruction_error(const ml::Matrix& x) {
  ml::Matrix& emb = enc_.forward(x, false);
  ml::Matrix& recon = dec_.forward(emb, false);
  ml::Matrix grad;
  return ml::mse_loss(recon, x, grad);
}

float Encoder::qa_error(const ml::Matrix& x, const ml::Matrix& targets) {
  ml::Matrix& emb = enc_.forward(x, false);
  ml::Matrix& pred = qa_head_.forward(emb, false);
  ml::Matrix grad;
  return ml::mse_loss(pred, targets, grad);
}

}  // namespace sugar::replearn
