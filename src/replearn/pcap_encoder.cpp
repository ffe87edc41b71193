#include "replearn/pcap_encoder.h"

#include "core/trace.h"
#include "replearn/mae_encoder.h"

#include <numeric>
#include <random>

namespace sugar::replearn {
namespace {

std::vector<std::size_t> enc_dims(const PcapEncoderConfig& cfg) {
  std::vector<std::size_t> d{cfg.input_dim};
  d.insert(d.end(), cfg.hidden.begin(), cfg.hidden.end());
  d.push_back(cfg.embed_dim);
  return d;
}

}  // namespace

PcapEncoder::PcapEncoder(PcapEncoderConfig cfg)
    : cfg_(std::move(cfg)),
      enc_(enc_dims(cfg_), cfg_.seed),
      dec_({cfg_.embed_dim, cfg_.hidden.back(), cfg_.input_dim}, cfg_.seed ^ 0xAE),
      qa_head_({cfg_.embed_dim, 64, cfg_.qa_dim}, cfg_.seed ^ 0x9A) {}

std::size_t PcapEncoder::param_count() const {
  return enc_.param_count() + dec_.param_count() + qa_head_.param_count();
}

void PcapEncoder::pretrain(const ml::Matrix& x, const PretrainOptions& opts) {
  if (!cfg_.enable_autoencoder_phase) return;
  SUGAR_TRACE_SPAN("replearn.pretrain.pcap_ae");
  pretrain_reconstruction(enc_, dec_, x, opts, kMaeMaskFraction * 0.5f,
                          "PcapEncoder::pretrain");
}

void PcapEncoder::pretrain_supervised(const ml::Matrix& x, const ml::Matrix& targets,
                                      const PretrainOptions& opts) {
  if (!cfg_.enable_qa_phase) return;
  SUGAR_TRACE_SPAN("replearn.pretrain.pcap_qa");
  std::mt19937_64 rng(opts.seed ^ 0x2222);
  std::vector<std::size_t> order(x.rows());
  std::iota(order.begin(), order.end(), 0);

  // The Q&A phase runs longer than the AE phase: it is the component the
  // paper's ablation (Table 11) finds most crucial.
  int epochs = opts.epochs * 3;
  ml::Matrix xb, tb, grad;
  auto step = [&](std::span<const std::size_t> idx) {
    x.take_rows_into(idx, xb);
    targets.take_rows_into(idx, tb);
    enc_.zero_grad();
    qa_head_.zero_grad();
    ml::Matrix& emb = enc_.forward(xb, true);
    ml::Matrix& pred = qa_head_.forward(emb, true);
    const float loss = ml::mse_loss(pred, tb, grad);
    enc_.backward(qa_head_.backward(grad));
    qa_head_.adam_step(opts.learning_rate);
    enc_.adam_step(opts.learning_rate);
    return loss;
  };
  for (int epoch = 0; epoch < epochs; ++epoch) {
    SUGAR_TRACE_SPAN("replearn.pretrain.epoch");
    SUGAR_TRACE_COUNT("ml.pretrain_epochs", 1);
    ml::train_epoch(order, opts.batch_size, rng, opts.cancel,
                    "PcapEncoder::pretrain_supervised", epoch, step);
  }
}

ml::Matrix PcapEncoder::embed(const ml::Matrix& x, bool training) {
  return enc_.forward(x, training);
}

void PcapEncoder::backward_into(const ml::Matrix& grad_embedding) {
  enc_.backward(grad_embedding);
}

void PcapEncoder::zero_grad() { enc_.zero_grad(); }

void PcapEncoder::adam_step(float lr) { enc_.adam_step(lr); }

std::unique_ptr<Encoder> PcapEncoder::clone() const {
  return std::make_unique<PcapEncoder>(*this);
}

void PcapEncoder::reinitialize(std::uint64_t seed) {
  PcapEncoderConfig cfg = cfg_;
  cfg.seed = seed;
  enc_ = ml::MlpNet(enc_dims(cfg), cfg.seed);
  dec_ = ml::MlpNet({cfg.embed_dim, cfg.hidden.back(), cfg.input_dim}, cfg.seed ^ 0xAE);
  qa_head_ = ml::MlpNet({cfg.embed_dim, 64, cfg.qa_dim}, cfg.seed ^ 0x9A);
}

float PcapEncoder::qa_error(const ml::Matrix& x, const ml::Matrix& targets) {
  ml::Matrix& emb = enc_.forward(x, false);
  ml::Matrix& pred = qa_head_.forward(emb, false);
  ml::Matrix grad;
  return ml::mse_loss(pred, targets, grad);
}

}  // namespace sugar::replearn
