#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <string_view>

#include "core/artifact.h"
#include "core/threadpool.h"
#include "dataset/task.h"
#include "replearn/head.h"
#include "replearn/pretrain.h"

namespace sugar::replearn {
namespace {

dataset::PacketDataset small_backbone() {
  auto trace = trafficgen::generate_backbone(51, 25);
  return dataset::make_unlabeled_dataset(trace);
}

ml::Matrix probe_input(const ModelBundle& b) {
  return ml::Matrix(4, b.encoder->input_dim(), 0.3f);
}

TEST(Pretrain, MovesEncoderWeights) {
  auto backbone = small_backbone();
  for (auto kind : {ModelKind::EtBert, ModelKind::NetFound, ModelKind::PcapEncoder}) {
    auto bundle = make_model(kind, TaskMode::Packet);
    auto x = probe_input(bundle);
    auto before = bundle.encoder->embed(x, false);

    BackbonePretrainOptions opts;
    opts.pretrain.epochs = 2;
    opts.max_samples = 600;
    pretrain_on_backbone(bundle, backbone, opts);

    auto after = bundle.encoder->embed(x, false);
    EXPECT_NE(before.data(), after.data()) << to_string(kind);
  }
}

TEST(Pretrain, FlowModePretrainsOnWindows) {
  auto backbone = small_backbone();
  auto bundle = make_model(ModelKind::YaTC, TaskMode::Flow);
  auto x = probe_input(bundle);
  auto before = bundle.encoder->embed(x, false);

  BackbonePretrainOptions opts;
  opts.pretrain.epochs = 2;
  opts.max_samples = 600;
  pretrain_on_backbone(bundle, backbone, opts);
  EXPECT_NE(before.data(), bundle.encoder->embed(x, false).data());
}

TEST(Pretrain, FlowModePcapEncoderPretrainsOnPackets) {
  // Pcap-Encoder is packet-level in either mode: a flow-mode bundle
  // pre-trains on the same packet views as the packet-mode one.
  auto backbone = small_backbone();
  BackbonePretrainOptions opts;
  opts.pretrain.epochs = 1;
  opts.max_samples = 300;
  auto packet = make_model(ModelKind::PcapEncoder, TaskMode::Packet);
  auto flow = make_model(ModelKind::PcapEncoder, TaskMode::Flow);
  pretrain_on_backbone(packet, backbone, opts);
  pretrain_on_backbone(flow, backbone, opts);
  auto x = probe_input(packet);
  EXPECT_EQ(flow.encoder->embed(x, false).data(), packet.encoder->embed(x, false).data());
  EXPECT_NE(make_model(ModelKind::PcapEncoder).encoder->embed(x, false).data(),
            packet.encoder->embed(x, false).data());
}

TEST(Pretrain, DeterministicForSeed) {
  auto backbone = small_backbone();
  auto run = [&]() {
    auto bundle = make_model(ModelKind::NetMamba, TaskMode::Packet);
    BackbonePretrainOptions opts;
    opts.pretrain.epochs = 2;
    opts.max_samples = 500;
    opts.seed = 77;
    pretrain_on_backbone(bundle, backbone, opts);
    ml::Matrix x(2, bundle.encoder->input_dim(), 0.4f);
    return bundle.encoder->embed(x, false);
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.data(), b.data());
}

TEST(Pretrain, SampleCapRespected) {
  // With a tiny cap the run must still work (and be fast).
  auto backbone = small_backbone();
  auto bundle = make_model(ModelKind::EtBert, TaskMode::Packet);
  BackbonePretrainOptions opts;
  opts.pretrain.epochs = 1;
  opts.max_samples = 64;
  pretrain_on_backbone(bundle, backbone, opts);
  SUCCEED();
}

/// Rebuilds the global pool at a given width for the test body, then
/// restores the env-derived width.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { core::set_global_threads(n); }
  ~ScopedThreads() { core::set_global_threads(0); }
};

/// FNV-1a over raw element bytes.
template <typename T>
std::uint64_t digest_of(const T* data, std::size_t count) {
  return core::fnv1a64(
      std::string_view(reinterpret_cast<const char*>(data), count * sizeof(T)));
}

struct PinnedTraining {
  ModelKind kind;
  TaskMode mode;
  /// Table 11 variant: which Pcap-Encoder pre-training phases run.
  bool autoencoder_phase;
  bool qa_phase;
  std::size_t params;         // Encoder::param_count (decoder and Q&A head included)
  std::uint64_t pretrained;   // encoder embeddings after pretrain_on_backbone
  std::uint64_t embeddings;   // DownstreamModel::embeddings after the fit
  std::uint64_t predictions;  // DownstreamModel::predict after the fit
  std::uint64_t reinitialized;  // embeddings after reinitialize(0xF00D)
};

// The whole encoder path (pre-training, Pcap-Encoder's Q&A phase, unfrozen
// fine-tuning, prediction, re-initialization) must keep every bit. The
// NetMamba and Pcap-Encoder digests were recorded before the GEMM kernels
// were register-tiled and before Adam ran on the pool; the other rows
// before MAE and Pcap-Encoder became one encoder class. Packet rows
// featurize 300 backbone packets (a 44-row last pre-training batch), flow
// rows every backbone flow's window; 4 classes make a head output narrower
// than one 8-lane vector.
constexpr PinnedTraining kPinnedTraining[] = {
    {ModelKind::EtBert, TaskMode::Packet, true, true, 419456, 0x73b6c8e6276b83c7ull,
     0x054246c3c63dc379ull, 0x8242b1d487cec057ull, 0xd6cd2881e43ee61full},
    {ModelKind::YaTC, TaskMode::Packet, true, true, 189408, 0x299550745612fbbdull,
     0x0e3a92f8a12f7607ull, 0xa6b73df160e5b067ull, 0x6e4f68ad5a6a1752ull},
    {ModelKind::NetMamba, TaskMode::Packet, true, true, 88880, 0xa7e82dc74f810284ull,
     0x27f83ce3c8278af4ull, 0x4a6fa06db87fa534ull, 0xcc75c6a6111d45baull},
    {ModelKind::TrafficFormer, TaskMode::Packet, true, true, 493376, 0x1b662f4c22f385b6ull,
     0xbecfd7dec299be07ull, 0x151b83cc8fe913e5ull, 0x2eba7aca3a2eaf2cull},
    {ModelKind::NetFound, TaskMode::Packet, true, true, 815386, 0x9b761ce0396f383eull,
     0x1c2573f09b1d40f5ull, 0x23220b69dac2e677ull, 0xbda3fe168035d1cbull},
    {ModelKind::PcapEncoder, TaskMode::Packet, true, true, 411103, 0xbb32d6b5ed3a6064ull,
     0x6a947ac61afea2d9ull, 0x53bb1ad8f319a325ull, 0x294628a953bd8fbcull},
    // Flow mode: the MAE encoders pre-train on flow windows.
    {ModelKind::EtBert, TaskMode::Flow, true, true, 246976, 0x4958c8a00e767babull,
     0xc786e61cb8c53653ull, 0x8dad9938e02fad44ull, 0xd90dd7ab49b9d29cull},
    {ModelKind::YaTC, TaskMode::Flow, true, true, 107168, 0xcca10c3e233c586bull,
     0xc763f1474295cbc7ull, 0x7faaa13e032559a4ull, 0x7473270eba7fb466ull},
    {ModelKind::NetMamba, TaskMode::Flow, true, true, 47600, 0xff510b0772ecffe0ull,
     0x7ff13bf0f019e56bull, 0x92d583d6e857eb44ull, 0xeab279bb2a7f22b8ull},
    {ModelKind::TrafficFormer, TaskMode::Flow, true, true, 246976, 0x10c9624afe42fef3ull,
     0xff4b236603790f7dull, 0x114590a2acf17366ull, 0xebfc4b167b0d3c76ull},
    {ModelKind::NetFound, TaskMode::Flow, true, true, 921986, 0x1fef6e17ed2d54ecull,
     0xc2068717666f6458ull, 0xfd9ab7e2085cd696ull, 0x2c470003d51fe59eull},
    // Table 11: Q&A only, then no pre-training at all (the Pcap-Encoder
    // packet row above is its AE + Q&A variant).
    {ModelKind::PcapEncoder, TaskMode::Packet, false, true, 411103, 0x06c5fa724cad7696ull,
     0xadcb35a56028bb9full, 0x449e5058457cbd65ull, 0x294628a953bd8fbcull},
    {ModelKind::PcapEncoder, TaskMode::Packet, false, false, 411103, 0x70ecccad89a93437ull,
     0x44c599f0af3b689eull, 0xc0afb66b6e7ca147ull, 0x294628a953bd8fbcull},
};

ModelBundle pinned_bundle(const PinnedTraining& pin) {
  auto bundle = make_model(pin.kind, pin.mode);
  if (!pin.autoencoder_phase || !pin.qa_phase) {
    EncoderConfig cfg = bundle.encoder->config();
    cfg.autoencoder_phase = pin.autoencoder_phase;
    cfg.qa_phase = pin.qa_phase;
    bundle.encoder = std::make_unique<Encoder>(cfg);
  }
  return bundle;
}

TEST(Pretrain, TrainingDigestsPinnedAcrossPoolWidths) {
  auto backbone = small_backbone();
  ASSERT_GE(backbone.size(), 300u);
  std::vector<std::size_t> rows(300);
  std::iota(rows.begin(), rows.end(), 0);
  const auto flows = backbone.flows();
  for (const PinnedTraining& pin : kPinnedTraining) {
    for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
      ScopedThreads threads(w);
      auto bundle = pinned_bundle(pin);
      BackbonePretrainOptions opts;
      opts.pretrain.epochs = 1;
      opts.max_samples = 300;
      pretrain_on_backbone(bundle, backbone, opts);

      const ml::Matrix x = pin.mode == TaskMode::Flow
                               ? bundle.featurize_flows(backbone, flows)
                               : bundle.featurize_packets(backbone, rows);
      const ml::Matrix pretrained = bundle.encoder->embed(x, false);
      std::vector<int> y(x.rows());
      for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 4);
      DownstreamConfig cfg;
      cfg.frozen = false;
      cfg.epochs = 2;
      DownstreamModel dm(bundle.encoder->clone(), 4, cfg);
      dm.fit(x, y);
      const ml::Matrix emb = dm.embeddings(x);
      const std::vector<int> pred = dm.predict(x);
      bundle.encoder->reinitialize(0xF00D);
      const ml::Matrix reinit = bundle.encoder->embed(x, false);

      const std::string where = to_string(pin.kind) +
                                (pin.mode == TaskMode::Flow ? " flow" : " packet") +
                                (pin.autoencoder_phase ? " ae" : "") +
                                (pin.qa_phase ? " qa" : "") + ", threads " +
                                std::to_string(w);
      EXPECT_EQ(bundle.encoder->param_count(), pin.params) << where;
      EXPECT_EQ(digest_of(pretrained.data().data(), pretrained.size()), pin.pretrained)
          << where;
      EXPECT_EQ(digest_of(emb.data().data(), emb.size()), pin.embeddings) << where;
      EXPECT_EQ(digest_of(pred.data(), pred.size()), pin.predictions) << where;
      EXPECT_EQ(digest_of(reinit.data().data(), reinit.size()), pin.reinitialized)
          << where;
    }
  }
}

}  // namespace
}  // namespace sugar::replearn
