#include <gtest/gtest.h>

#include <random>

#include "replearn/encoder.h"
#include "replearn/model_zoo.h"

namespace sugar::replearn {
namespace {

ml::Matrix structured_data(std::size_t n, std::size_t d, std::uint64_t seed) {
  // Half the dims are a low-rank pattern (reconstructible), half pure noise
  // (not reconstructible) — the "header vs encrypted payload" structure.
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> unif(0, 1);
  ml::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    float basis = unif(rng);
    for (std::size_t j = 0; j < d / 2; ++j)
      x(i, j) = basis * (j % 3 == 0 ? 1.0f : 0.5f);
    for (std::size_t j = d / 2; j < d; ++j) x(i, j) = unif(rng);
  }
  return x;
}

TEST(Encoder, PretrainingReducesReconstructionError) {
  EncoderConfig cfg;
  cfg.input_dim = 40;
  cfg.hidden = {32};
  cfg.embed_dim = 16;
  Encoder enc(cfg);

  auto train = structured_data(400, 40, 1);
  auto held_out = structured_data(100, 40, 2);

  float before = enc.reconstruction_error(held_out);
  PretrainOptions opts;
  opts.epochs = 8;
  enc.pretrain(train, opts);
  float after = enc.reconstruction_error(held_out);
  EXPECT_LT(after, before * 0.8f);
}

TEST(Encoder, EmbedShapeAndDeterminism) {
  EncoderConfig cfg;
  cfg.input_dim = 20;
  cfg.embed_dim = 8;
  Encoder enc(cfg);
  auto x = structured_data(5, 20, 3);
  auto e1 = enc.embed(x, false);
  auto e2 = enc.embed(x, false);
  ASSERT_EQ(e1.rows(), 5u);
  ASSERT_EQ(e1.cols(), 8u);
  EXPECT_EQ(e1.data(), e2.data());
}

TEST(Encoder, CloneIsIndependent) {
  EncoderConfig cfg;
  cfg.input_dim = 20;
  cfg.embed_dim = 8;
  Encoder enc(cfg);
  auto x = structured_data(10, 20, 4);
  auto before = enc.embed(x, false);

  auto clone = enc.clone();
  // Train the clone; the original must not move.
  PretrainOptions opts;
  opts.epochs = 3;
  clone->pretrain(x, opts);
  auto after_original = enc.embed(x, false);
  EXPECT_EQ(before.data(), after_original.data());
  auto after_clone = clone->embed(x, false);
  EXPECT_NE(before.data(), after_clone.data());
}

TEST(Encoder, ReinitializeDiscardsPretraining) {
  EncoderConfig cfg;
  cfg.input_dim = 20;
  cfg.embed_dim = 8;
  Encoder enc(cfg);
  auto x = structured_data(10, 20, 5);
  auto before = enc.embed(x, false);
  enc.reinitialize(999);
  auto after = enc.embed(x, false);
  EXPECT_NE(before.data(), after.data());
}

TEST(Encoder, UnfrozenGradientsChangeEncoder) {
  EncoderConfig cfg;
  cfg.input_dim = 12;
  cfg.embed_dim = 6;
  Encoder enc(cfg);
  auto x = structured_data(8, 12, 6);
  auto before = enc.embed(x, false);

  // Push a gradient through: embeddings must move after the step.
  auto emb = enc.embed(x, true);
  ml::Matrix grad(emb.rows(), emb.cols(), 0.1f);
  enc.zero_grad();
  enc.backward_into(grad);
  enc.adam_step(0.01f);
  auto after = enc.embed(x, false);
  EXPECT_NE(before.data(), after.data());
}

TEST(PcapEncoder, QaPhaseLearnsHeaderSemantics) {
  EncoderConfig cfg;
  cfg.input_dim = 64;
  cfg.hidden = {48, 48};
  cfg.embed_dim = 24;
  cfg.seed = 13;
  cfg.qa_dim = 10;
  Encoder enc(cfg);

  // Targets: a simple function of the first input dims (a stand-in for
  // "read the TTL field").
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<float> unif(0, 1);
  ml::Matrix x(500, 64);
  ml::Matrix targets(500, 10);
  for (std::size_t i = 0; i < 500; ++i) {
    for (std::size_t j = 0; j < 64; ++j) x(i, j) = unif(rng) > 0.5f ? 1.0f : 0.0f;
    for (std::size_t q = 0; q < 10; ++q) targets(i, q) = x(i, q * 3);
  }

  float before = enc.qa_error(x, targets);
  PretrainOptions opts;
  opts.epochs = 4;
  enc.pretrain(x, opts);
  enc.pretrain_qa(x, targets, opts);
  float after = enc.qa_error(x, targets);
  EXPECT_LT(after, before * 0.3f);
}

TEST(PcapEncoder, AblationSwitchesDisablePhases) {
  EncoderConfig cfg;
  cfg.input_dim = 32;
  cfg.hidden = {16, 16};
  cfg.embed_dim = 8;
  cfg.seed = 13;
  cfg.qa_dim = qa_target_dim();
  cfg.autoencoder_phase = false;
  cfg.qa_phase = false;
  Encoder enc(cfg);

  auto x = structured_data(50, 32, 8);
  auto before = enc.embed(x, false);
  PretrainOptions opts;
  opts.epochs = 3;
  enc.pretrain(x, opts);  // disabled -> no-op
  ml::Matrix targets(50, cfg.qa_dim, 0.5f);
  enc.pretrain_qa(x, targets, opts);  // disabled -> no-op
  auto after = enc.embed(x, false);
  EXPECT_EQ(before.data(), after.data());
}

TEST(PcapEncoder, ParamCountPositive) {
  const auto bundle = make_model(ModelKind::PcapEncoder);
  const Encoder& enc = *bundle.encoder;
  EXPECT_GT(enc.param_count(), 10000u);
  EXPECT_EQ(enc.name(), "Pcap-Encoder");
  EXPECT_EQ(enc.embed_dim(), 160u);
  EXPECT_EQ(enc.config().qa_dim, qa_target_dim());
  EXPECT_FALSE(make_model(ModelKind::NetMamba).encoder->has_qa_head());
}

TEST(Encoder, QaPhaseNeedsAQaHead) {
  EncoderConfig cfg;
  cfg.input_dim = 12;
  cfg.embed_dim = 6;
  Encoder enc(cfg);
  auto x = structured_data(8, 12, 9);
  ml::Matrix targets(8, 3, 0.5f);
  EXPECT_THROW(enc.pretrain_qa(x, targets, PretrainOptions{}), ml::InternalError);
}

}  // namespace
}  // namespace sugar::replearn
