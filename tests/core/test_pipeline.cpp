// End-to-end integration tests: a miniature BenchmarkEnv drives full
// scenarios through dataset generation, cleaning, splitting, pre-training,
// downstream training and evaluation.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/ooc.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/supervisor.h"
#include "core/threadpool.h"

namespace sugar::core {
namespace {

EnvConfig tiny_config() {
  EnvConfig cfg;
  cfg.seed = 13;
  cfg.flows_per_class_iscx = 5;
  cfg.flows_per_class_ustc = 6;
  cfg.flows_per_class_tls = 3;
  cfg.backbone_flows = 60;
  cfg.downstream_epochs = 6;
  cfg.max_train_packets = 2000;
  cfg.max_test_packets = 1000;
  cfg.max_train_packets_deep = 1600;
  cfg.max_test_packets_deep = 1000;
  cfg.pretrain_epochs = 4;
  cfg.pretrain_max_samples = 1600;
  return cfg;
}

class PipelineTest : public ::testing::Test {
 protected:
  BenchmarkEnv env{tiny_config()};
};

TEST_F(PipelineTest, TaskDatasetsCachedAndLabelled) {
  const auto& a = env.task_dataset(dataset::TaskId::VpnBinary);
  const auto& b = env.task_dataset(dataset::TaskId::VpnBinary);
  EXPECT_EQ(&a, &b) << "task datasets are cached";
  EXPECT_EQ(a.num_classes, 2);
  EXPECT_GT(a.size(), 100u);

  const auto& report = env.cleaning_report(dataset::SourceDataset::IscxVpn);
  EXPECT_GT(report.removed_spurious_total(), 0u);
}

TEST_F(PipelineTest, PacketScenarioRunsAndAuditsClean) {
  ScenarioOptions opts;
  opts.split = dataset::SplitPolicy::PerFlow;
  opts.frozen = true;
  auto r = run_packet_scenario(env, dataset::TaskId::UstcBinary,
                               replearn::ModelKind::NetMamba, opts);
  EXPECT_GT(r.n_train, 0u);
  EXPECT_GT(r.n_test, 0u);
  EXPECT_TRUE(r.audit.clean());
  EXPECT_GE(r.metrics.accuracy, 0.0);
  EXPECT_LE(r.metrics.accuracy, 1.0);
  EXPECT_GT(r.train_seconds, 0.0);
  // Every scenario surfaces the source trace's ingestion health.
  EXPECT_GT(r.ingest.source_packets, 0u);
  EXPECT_EQ(r.ingest.malformed_frames, 0u) << "synthetic traces parse cleanly";
  EXPECT_GT(r.ingest.spurious_removed, 0u);
}

TEST_F(PipelineTest, PerPacketScenarioAuditsLeaky) {
  ScenarioOptions opts;
  opts.split = dataset::SplitPolicy::PerPacket;
  opts.frozen = true;
  auto r = run_packet_scenario(env, dataset::TaskId::UstcBinary,
                               replearn::ModelKind::NetMamba, opts);
  EXPECT_FALSE(r.audit.clean());
  EXPECT_GT(r.audit.leaked_test_packets, 0u);
}

TEST_F(PipelineTest, BinaryTaskIsEasyEvenFrozen) {
  // USTC-binary: malware vs benign stays solid for all models (Table 3's
  // one consistent column).
  ScenarioOptions opts;
  opts.split = dataset::SplitPolicy::PerFlow;
  opts.frozen = true;
  auto r = run_packet_scenario(env, dataset::TaskId::UstcBinary,
                               replearn::ModelKind::PcapEncoder, opts);
  // At this miniature scale "easy" means clearly above chance; the bench
  // binaries at full scale reach ~100% as in the paper.
  EXPECT_GT(r.metrics.accuracy, 0.6);
}

TEST_F(PipelineTest, EmbeddingExportForPurity) {
  ScenarioOptions opts;
  opts.split = dataset::SplitPolicy::PerFlow;
  opts.frozen = true;
  opts.export_embeddings = 200;
  auto r = run_packet_scenario(env, dataset::TaskId::VpnBinary,
                               replearn::ModelKind::NetMamba, opts);
  ASSERT_TRUE(r.embeddings.has_value());
  EXPECT_LE(r.embeddings->rows(), 200u);
  EXPECT_EQ(r.embeddings->rows(), r.embedding_labels.size());
  auto purity = purity_of(r);
  EXPECT_GE(purity.mean_purity, 0.0);
  EXPECT_LE(purity.mean_purity, 1.0);
}

TEST_F(PipelineTest, AblationOptionsChangeResults) {
  ScenarioOptions base;
  base.split = dataset::SplitPolicy::PerFlow;
  base.frozen = true;
  auto r1 = run_packet_scenario(env, dataset::TaskId::UstcBinary,
                                replearn::ModelKind::PcapEncoder, base);

  ScenarioOptions ablated = base;
  ablated.train_ablation.zero_header = true;
  ablated.test_ablation.zero_header = true;
  auto r2 = run_packet_scenario(env, dataset::TaskId::UstcBinary,
                                replearn::ModelKind::PcapEncoder, ablated);
  // A header-only encoder with zeroed headers cannot beat the intact one.
  EXPECT_LE(r2.metrics.accuracy, r1.metrics.accuracy + 0.05);
}

TEST_F(PipelineTest, FlowScenarioRuns) {
  ScenarioOptions opts;
  opts.frozen = true;
  auto r = run_flow_scenario(env, dataset::TaskId::UstcApp,
                             replearn::ModelKind::NetMamba, opts, 5);
  EXPECT_GT(r.n_train, 0u);
  EXPECT_GT(r.n_test, 0u);
}

TEST_F(PipelineTest, FlowScenarioPcapEncoderMajorityVote) {
  ScenarioOptions opts;
  opts.frozen = true;
  auto r = run_flow_scenario(env, dataset::TaskId::UstcBinary,
                             replearn::ModelKind::PcapEncoder, opts, 5);
  EXPECT_GT(r.n_test, 0u);
  EXPECT_GT(r.metrics.accuracy, 0.6);
  // Recorded before the vote stopped cloning a second pre-trained encoder.
  const ml::ConfusionMatrix& cm = r.metrics.confusion;
  std::vector<std::uint64_t> counts;
  for (int t = 0; t < cm.num_classes(); ++t)
    for (int p = 0; p < cm.num_classes(); ++p) counts.push_back(cm.at(t, p));
  EXPECT_EQ(fnv1a64(std::string_view(reinterpret_cast<const char*>(counts.data()),
                                     counts.size() * sizeof(std::uint64_t))),
            0xfe31fc55aa768aaaull);
}

TEST_F(PipelineTest, ShallowScenarioWithImportance) {
  ScenarioOptions opts;
  opts.split = dataset::SplitPolicy::PerFlow;
  auto r = run_shallow_scenario(env, dataset::TaskId::UstcApp,
                                ShallowKind::RandomForest, true, opts);
  EXPECT_GT(r.metrics.accuracy, 0.3);
  ASSERT_EQ(r.feature_importance.size(), r.feature_names.size());
  double sum = 0;
  for (double v : r.feature_importance) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST_F(PipelineTest, ShallowScenarioReportsRowCounts) {
  ScenarioOptions opts;
  opts.split = dataset::SplitPolicy::PerFlow;
  auto r = run_shallow_scenario(env, dataset::TaskId::UstcBinary,
                                ShallowKind::RandomForest, true, opts);
  EXPECT_GT(r.n_train, 0u);
  EXPECT_EQ(r.n_test, r.metrics.confusion.total()) << "every test row is scored";
  EXPECT_GT(r.n_test, 0u);
  // Table 8 and Fig 5 cells report these through the supervisor summary.
  const CellSummary s = summarize(r);
  EXPECT_EQ(s.n_train, r.n_train);
  EXPECT_EQ(s.n_test, r.n_test);
}

TEST_F(PipelineTest, ShallowKindsAllRun) {
  ScenarioOptions opts;
  opts.split = dataset::SplitPolicy::PerFlow;
  for (auto kind : {ShallowKind::XgboostStyle, ShallowKind::LightGbmStyle,
                    ShallowKind::Mlp}) {
    auto r = run_shallow_scenario(env, dataset::TaskId::UstcBinary, kind, true, opts);
    EXPECT_GT(r.metrics.accuracy, 0.6) << to_string(kind);
  }
}

TEST_F(PipelineTest, PretrainedBundlesAreIndependentCopies) {
  auto a = env.pretrained(replearn::ModelKind::NetMamba, replearn::TaskMode::Packet);
  auto b = env.pretrained(replearn::ModelKind::NetMamba, replearn::TaskMode::Packet);
  EXPECT_NE(a.encoder.get(), b.encoder.get());
  // Same pre-trained weights: same embeddings.
  ml::Matrix x(3, a.encoder->input_dim(), 0.25f);
  EXPECT_EQ(a.encoder->embed(x, false).data(), b.encoder->embed(x, false).data());
}

TEST_F(PipelineTest, FlowScenarioEmptyPartitionRaisesTypedError) {
  // No flow in the tiny trace reaches a million packets, so the flow
  // runner's partition is empty — a typed RunError, not a silent zero row.
  ScenarioOptions opts;
  opts.frozen = true;
  try {
    run_flow_scenario(env, dataset::TaskId::VpnApp, replearn::ModelKind::NetMamba,
                      opts, /*min_flow_len=*/1000000);
    FAIL() << "expected RunError(kEmptyPartition)";
  } catch (const RunError& e) {
    EXPECT_EQ(e.kind(), RunErrorKind::kEmptyPartition);
    EXPECT_NE(std::string(e.what()).find("1000000"), std::string::npos);
  }
}

TEST_F(PipelineTest, PreCancelledTokenAbortsScenario) {
  // A watchdog that has already fired must unwind the scenario with
  // CancelledError before any training epoch completes.
  ml::CancelToken token;
  token.cancel();
  ScenarioOptions opts;
  opts.split = dataset::SplitPolicy::PerFlow;
  opts.frozen = true;
  opts.cancel = &token;
  EXPECT_THROW(run_packet_scenario(env, dataset::TaskId::UstcBinary,
                                   replearn::ModelKind::NetMamba, opts),
               ml::CancelledError);
}

TEST_F(PipelineTest, PreCancelledTokenAbortsShallowScenario) {
  ml::CancelToken token;
  token.cancel();
  ScenarioOptions opts;
  opts.split = dataset::SplitPolicy::PerFlow;
  opts.cancel = &token;
  EXPECT_THROW(run_shallow_scenario(env, dataset::TaskId::UstcBinary,
                                    ShallowKind::RandomForest, true, opts),
               ml::CancelledError);
  // The boosted cells on a multi-class task, where each round fits its
  // class trees in parallel.
  for (auto kind : {ShallowKind::XgboostStyle, ShallowKind::LightGbmStyle})
    EXPECT_THROW(run_shallow_scenario(env, dataset::TaskId::UstcApp, kind, true, opts),
                 ml::CancelledError)
        << to_string(kind);
}

// The out-of-core pipeline's prediction digest at 20,000 packets with
// default options. It is a pure function of (scale, seed), so every pool
// width must reproduce it.
TEST(OocScale, DigestPinnedAcrossPoolWidths) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "sugar_ooc_scale_pin";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const std::size_t width : {1u, 2u, 7u}) {
    set_global_threads(width);
    OocOptions opts;
    opts.dir = dir.string();
    opts.target_packets = 20000;
    EXPECT_EQ(run_ooc_scale(opts).digest, 0x29fda30dcb755fb0ull)
        << "threads=" << width;
  }
  set_global_threads(0);
  fs::remove_all(dir);
}

TEST(Report, MarkdownTableFormat) {
  MarkdownTable t{{"A", "B"}};
  t.add_row({"1", "2"});
  auto s = t.to_string();
  EXPECT_NE(s.find("| A | B |"), std::string::npos);
  EXPECT_NE(s.find("|---|---|"), std::string::npos);
  EXPECT_NE(s.find("| 1 | 2 |"), std::string::npos);
  EXPECT_EQ(MarkdownTable::pct(0.1234), "12.3");
  EXPECT_EQ(MarkdownTable::num(3.14159, 2), "3.14");
}

}  // namespace
}  // namespace sugar::core
