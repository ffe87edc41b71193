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
  std::uint64_t pretrained;   // encoder embeddings after pretrain_on_backbone
  std::uint64_t embeddings;   // DownstreamModel::embeddings after the fit
  std::uint64_t predictions;  // DownstreamModel::predict after the fit
};

// Recorded before the GEMM kernels were register-tiled and before Adam ran
// on the pool: the whole encoder path (pre-training, Pcap-Encoder's Q&A
// phase, unfrozen fine-tuning, prediction) must keep every bit. 300
// samples leave a 44-row last pre-training batch and 4 classes a head
// output narrower than one 8-lane vector.
constexpr PinnedTraining kPinnedTraining[] = {
    {ModelKind::NetMamba, 0xa7e82dc74f810284ull, 0x27f83ce3c8278af4ull,
     0x4a6fa06db87fa534ull},
    {ModelKind::PcapEncoder, 0xbb32d6b5ed3a6064ull, 0x6a947ac61afea2d9ull,
     0x53bb1ad8f319a325ull},
};

TEST(Pretrain, TrainingDigestsPinnedAcrossPoolWidths) {
  auto backbone = small_backbone();
  ASSERT_GE(backbone.size(), 300u);
  std::vector<std::size_t> rows(300);
  std::iota(rows.begin(), rows.end(), 0);
  for (const PinnedTraining& pin : kPinnedTraining) {
    for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
      ScopedThreads threads(w);
      auto bundle = make_model(pin.kind, TaskMode::Packet);
      BackbonePretrainOptions opts;
      opts.pretrain.epochs = 1;
      opts.max_samples = 300;
      pretrain_on_backbone(bundle, backbone, opts);

      const ml::Matrix x = bundle.featurize_packets(backbone, rows);
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

      const std::string where = to_string(pin.kind) + ", threads " + std::to_string(w);
      EXPECT_EQ(digest_of(pretrained.data().data(), pretrained.size()), pin.pretrained)
          << where;
      EXPECT_EQ(digest_of(emb.data().data(), emb.size()), pin.embeddings) << where;
      EXPECT_EQ(digest_of(pred.data(), pred.size()), pin.predictions) << where;
    }
  }
}

}  // namespace
}  // namespace sugar::replearn
