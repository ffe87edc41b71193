#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <string>
#include <string_view>

#include "core/artifact.h"
#include "core/threadpool.h"
#include "core/trace.h"
#include "ml/metrics.h"
#include "replearn/head.h"
#include "replearn/mae_encoder.h"
#include "replearn/model_zoo.h"

namespace sugar::replearn {
namespace {

std::unique_ptr<Encoder> small_encoder() {
  MaeEncoderConfig cfg;
  cfg.input_dim = 16;
  cfg.hidden = {24};
  cfg.embed_dim = 12;
  return std::make_unique<MaeEncoder>(cfg);
}

std::pair<ml::Matrix, std::vector<int>> separable_data(std::size_t n,
                                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> unif(0, 1);
  ml::Matrix x(n, 16);
  std::vector<int> y;
  for (std::size_t i = 0; i < n; ++i) {
    int cls = static_cast<int>(i % 3);
    for (std::size_t j = 0; j < 16; ++j)
      x(i, j) = 0.2f * unif(rng) + (j == static_cast<std::size_t>(cls) ? 1.0f : 0.0f);
    y.push_back(cls);
  }
  return {std::move(x), std::move(y)};
}

TEST(DownstreamModel, FrozenTrainingLeavesEncoderUntouched) {
  auto enc = small_encoder();
  auto [x, y] = separable_data(120, 1);
  auto before = enc->embed(x, false);

  DownstreamConfig cfg;
  cfg.frozen = true;
  cfg.epochs = 20;
  cfg.validation_fraction = 0;  // this test probes weight invariance
  DownstreamModel dm(enc->clone(), 3, cfg);
  dm.fit(x, y);

  auto after = dm.encoder().embed(x, false);
  EXPECT_EQ(before.data(), after.data())
      << "frozen training must not move encoder weights";
  // Head alone learns the (linearly separable) task.
  auto pred = dm.predict(x);
  EXPECT_GT(ml::evaluate(y, pred, 3).accuracy, 0.9);
}

TEST(DownstreamModel, UnfrozenTrainingMovesEncoder) {
  auto enc = small_encoder();
  auto [x, y] = separable_data(120, 2);
  auto before = enc->embed(x, false);

  DownstreamConfig cfg;
  cfg.frozen = false;
  cfg.epochs = 10;
  DownstreamModel dm(enc->clone(), 3, cfg);
  dm.fit(x, y);

  auto after = dm.encoder().embed(x, false);
  EXPECT_NE(before.data(), after.data());
}

TEST(DownstreamModel, FlowHoldoutValidationPicksGeneralizingEpoch) {
  // Flow-structured data where memorizing the flow noise overfits: each
  // flow has an id-like random offset; class depends only on dim 0.
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<float> unif(0, 1);
  std::size_t n = 300;
  ml::Matrix x(n, 16);
  std::vector<int> y;
  std::vector<int> groups;
  for (std::size_t i = 0; i < n; ++i) {
    int flow = static_cast<int>(i / 10);
    int cls = flow % 2;
    x(i, 0) = 3.0f * static_cast<float>(cls);
    for (std::size_t j = 1; j < 16; ++j)
      x(i, j) = unif(rng);
    y.push_back(cls);
    groups.push_back(flow);
  }
  DownstreamConfig cfg;
  cfg.frozen = true;
  cfg.epochs = 40;
  cfg.flow_holdout_validation = true;
  DownstreamModel dm(small_encoder(), 2, cfg);
  dm.fit(x, y, groups);
  auto pred = dm.predict(x);
  EXPECT_GT(ml::evaluate(y, pred, 2).accuracy, 0.85);
}

/// Rebuilds the global pool at a given width for the test body, then
/// restores the env-derived width.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { core::set_global_threads(n); }
  ~ScopedThreads() { core::set_global_threads(0); }
};

/// Records trace counters for the test body, then turns tracing off.
class ScopedSummaryTrace {
 public:
  ScopedSummaryTrace() {
    core::trace::reset();
    core::trace::set_mode(core::trace::Mode::kSummary);
  }
  ~ScopedSummaryTrace() {
    core::trace::set_mode(core::trace::Mode::kOff);
    core::trace::reset();
  }
};

std::uint64_t digest_of(const std::vector<int>& v) {
  return core::fnv1a64(std::string_view(reinterpret_cast<const char*>(v.data()),
                                        v.size() * sizeof(int)));
}

// Recorded before the minibatch fits shared one epoch loop: the frozen
// fit with flow holdout (the per-flow tables' path), on data where
// validation accuracy stops improving well inside the epoch budget, so
// early stopping fires and the best epoch's head is restored.
constexpr std::uint64_t kPinnedFrozenTrainPredictions = 0x94966b0f801444b5ull;
constexpr std::uint64_t kPinnedFrozenProbePredictions = 0xa2bc71cb128121c6ull;

TEST(DownstreamModel, FrozenFitDigestsPinnedAcrossPoolWidths) {
  // 48 flows of 8 samples, 4 classes. Each flow carries its own offset on
  // the class dimensions, so held-out flows cap validation accuracy.
  std::mt19937_64 rng(17);
  std::normal_distribution<float> noise(0.0f, 0.5f);
  std::uniform_real_distribution<float> unif(0, 1);
  ml::Matrix x(384, 16);
  std::vector<int> y, groups;
  float flow_offset = 0.0f;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const int flow = static_cast<int>(i / 8);
    const int cls = flow % 4;
    if (i % 8 == 0) flow_offset = noise(rng);
    for (std::size_t j = 0; j < 16; ++j)
      x(i, j) = unif(rng) + (j % 4 == static_cast<std::size_t>(cls) ? 0.8f + flow_offset : 0.0f);
    y.push_back(cls);
    groups.push_back(flow);
  }
  ml::Matrix probe(64, 16);
  for (auto& v : probe.data()) v = 1.5f * unif(rng);

  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ScopedThreads threads(w);
    ScopedSummaryTrace trace;
    DownstreamConfig cfg;
    cfg.frozen = true;
    cfg.epochs = 40;
    DownstreamModel dm(small_encoder(), 4, cfg);
    dm.fit(x, y, groups);
    EXPECT_LT(core::trace::counter("ml.epochs").value(), 40u)
        << "early stopping must fire, threads " << w;
    EXPECT_EQ(digest_of(dm.predict(x)), kPinnedFrozenTrainPredictions) << "threads " << w;
    EXPECT_EQ(digest_of(dm.predict(probe)), kPinnedFrozenProbePredictions)
        << "threads " << w;
  }
}

TEST(ModelZoo, AllModelsConstruct) {
  for (auto kind : all_model_kinds()) {
    for (auto mode : {TaskMode::Packet, TaskMode::Flow}) {
      auto bundle = make_model(kind, mode);
      ASSERT_NE(bundle.encoder, nullptr) << to_string(kind);
      EXPECT_EQ(bundle.name, to_string(kind));
      EXPECT_GT(bundle.encoder->param_count(), 0u);
      EXPECT_GT(bundle.encoder->embed_dim(), 0u);
      // Input dim of the encoder matches the view dimension.
      std::size_t view_dim = bundle.view_kind == ModelBundle::ViewKind::Multimodal
                                 ? bundle.mm_view.dim()
                                 : bundle.byte_view.dim();
      if (mode == TaskMode::Flow && kind != ModelKind::PcapEncoder)
        view_dim *= static_cast<std::size_t>(bundle.flow_packets);
      EXPECT_EQ(bundle.encoder->input_dim(), view_dim) << to_string(kind);
    }
  }
}

TEST(ModelZoo, PacRepExtensionConstructs) {
  auto pacrep = make_model(ModelKind::PacRep);
  EXPECT_EQ(pacrep.name, "PacRep");
  EXPECT_TRUE(pacrep.byte_view.zero_ip_addresses);
  EXPECT_TRUE(pacrep.byte_view.zero_ports);
  // Not part of the paper's evaluated set.
  auto kinds = all_model_kinds();
  EXPECT_EQ(std::count(kinds.begin(), kinds.end(), ModelKind::PacRep), 0);
}

TEST(ModelZoo, InputPoliciesMatchAppendixA2) {
  auto etbert = make_model(ModelKind::EtBert);
  EXPECT_FALSE(etbert.byte_view.include_ip_header);  // "remove IP header"
  EXPECT_TRUE(etbert.byte_view.zero_ports);          // "remove TCP ports"
  EXPECT_TRUE(etbert.byte_view.include_payload);

  auto yatc = make_model(ModelKind::YaTC);
  EXPECT_TRUE(yatc.byte_view.zero_ip_addresses);  // "anonymize IPs and ports"
  EXPECT_TRUE(yatc.byte_view.zero_ports);

  auto pcap = make_model(ModelKind::PcapEncoder);
  EXPECT_FALSE(pcap.byte_view.include_payload);  // header-only by design
  EXPECT_FALSE(pcap.byte_view.zero_ip_addresses);

  auto netfound = make_model(ModelKind::NetFound);
  EXPECT_EQ(netfound.view_kind, ModelBundle::ViewKind::Multimodal);

  // Efficiency ordering (Fig. 6): netFound largest, NetMamba smallest.
  auto netmamba = make_model(ModelKind::NetMamba);
  EXPECT_GT(netfound.encoder->param_count(), netmamba.encoder->param_count());
}

}  // namespace
}  // namespace sugar::replearn
