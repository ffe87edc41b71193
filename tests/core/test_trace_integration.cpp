// Integration coverage for the trace wiring: the supervisor's schema-4
// artifact (trace section, per-cell counter deltas, chrome trace file),
// the off-mode guarantee that artifacts stay schema 2 with no trace keys,
// the --trace CLI flag, an end-to-end tiny-scale shallow scenario that
// must light up the expected span names and counter keys across env ->
// dataset -> pipeline -> ml, and the zero-interference contract: no trace
// mode changes a single output byte of an instrumented kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/env.h"
#include "core/pipeline.h"
#include "core/supervisor.h"
#include "core/threadpool.h"
#include "core/trace.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/knn.h"
#include "ml/matrix.h"
#include "net/pcap.h"
#include "trafficgen/datasets.h"

namespace sugar::core {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

CellSummary ok_summary() {
  CellSummary s;
  s.accuracy = 0.5;
  s.macro_f1 = 0.25;
  return s;
}

ml::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  ml::Matrix m(rows, cols);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : m.data()) v = dist(rng);
  return m;
}

/// Pins the global pool width for a test body, then restores the default.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { set_global_threads(n); }
  ~ScopedThreads() { set_global_threads(0); }
};

/// The raw bytes of a buffer, so -0.0f vs +0.0f or a last-ulp drift shows.
template <typename T, typename Alloc>
std::string raw_bytes(const std::vector<T, Alloc>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(T));
}

/// Trace-clean fixture with a per-test temp dir: every test starts with an
/// empty registry in off mode and cannot leak a mode into later tests.
class TraceIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    trace::set_mode(trace::Mode::kOff);
    trace::reset();
    dir_ = fs::temp_directory_path() /
           ("sugar_trace_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    trace::set_mode(trace::Mode::kOff);
    trace::reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  SupervisorConfig config(const std::string& name) {
    SupervisorConfig cfg;
    cfg.bench_name = name;
    cfg.json_path = (dir_ / ("BENCH_" + name + ".json")).string();
    cfg.quiet = true;
    return cfg;
  }

  static std::map<std::string, trace::PhaseStat> phases_by_name() {
    std::map<std::string, trace::PhaseStat> out;
    for (auto& s : trace::phase_stats()) out[s.name] = s;
    return out;
  }

  static std::map<std::string, std::uint64_t> counters_by_name() {
    std::map<std::string, std::uint64_t> out;
    for (auto& c : trace::counters_snapshot()) out[c.name] = c.value;
    return out;
  }

  fs::path dir_;
};

TEST_F(TraceIntegrationTest, OffModeArtifactStaysSchema2WithNoTraceKeys) {
  auto cfg = config("off");
  RunSupervisor sup(cfg);
  auto outcome =
      sup.run_cell({"off", "r", "c", ""}, [](CellContext&) { return ok_summary(); });
  EXPECT_TRUE(outcome.ok());
  EXPECT_TRUE(sup.finalize());

  auto doc = Json::parse(read_file(cfg.json_path));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema_version")->number_or(0), 2);
  EXPECT_EQ(doc->find("trace"), nullptr);
  for (const Json& cell : doc->find("cells")->items())
    EXPECT_EQ(cell.find("trace"), nullptr);
}

TEST_F(TraceIntegrationTest, TracePathForcesSpansAndWritesSchema4PlusChrome) {
  auto cfg = config("traced");
  cfg.trace_path = (dir_ / "trace.json").string();
  RunSupervisor sup(cfg);
  EXPECT_EQ(trace::mode(), trace::Mode::kSpans)
      << "a trace_path must force spans mode";

  std::vector<CellOutcome> outcomes;
  for (int i = 0; i < 3; ++i)
    outcomes.push_back(sup.run_cell(
        {"traced", "r" + std::to_string(i), "c",
         generic_cell_key({"traced", std::to_string(i)})},
        [](CellContext&) {
          SUGAR_TRACE_SPAN("test.cell_body");
          SUGAR_TRACE_COUNT("test.cell_work", 11);
          return ok_summary();
        }));
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.ok());
    // Per-cell counter deltas were captured, and with one cell at a time
    // they are exactly this cell's own work.
    bool saw_work = false;
    for (const Json& d : o.trace_counters.items())
      if (d.find("name")->string_or("") == "test.cell_work") {
        saw_work = true;
        EXPECT_EQ(d.find("delta")->number_or(0), 11);
      }
    EXPECT_TRUE(saw_work);
  }
  EXPECT_TRUE(sup.finalize());

  auto doc = Json::parse(read_file(cfg.json_path));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema_version")->number_or(0), 4);
  const Json* trace_sec = doc->find("trace");
  ASSERT_NE(trace_sec, nullptr);
  EXPECT_EQ(trace_sec->find("mode")->string_or(""), "spans");

  std::vector<std::string> phase_names;
  for (const Json& p : trace_sec->find("phases")->items())
    phase_names.push_back(p.find("name")->string_or(""));
  EXPECT_NE(std::find(phase_names.begin(), phase_names.end(), "supervisor.cell"),
            phase_names.end());
  EXPECT_NE(std::find(phase_names.begin(), phase_names.end(), "test.cell_body"),
            phase_names.end());

  std::map<std::string, double> counter_values;
  for (const Json& c : trace_sec->find("counters")->items())
    counter_values[c.find("name")->string_or("")] = c.find("value")->number_or(-1);
  EXPECT_EQ(counter_values["supervisor.cells_started"], 3);
  EXPECT_EQ(counter_values["supervisor.cells_ok"], 3);
  EXPECT_EQ(counter_values["test.cell_work"], 33);

  for (const Json& cell : doc->find("cells")->items()) {
    const Json* cell_trace = cell.find("trace");
    ASSERT_NE(cell_trace, nullptr);
    ASSERT_NE(cell_trace->find("counters"), nullptr);
    EXPECT_TRUE(cell_trace->find("counters")->is_array());
  }

  // The chrome trace landed beside the artifact and is loadable JSON with
  // complete events.
  auto chrome = Json::parse(read_file(cfg.trace_path));
  ASSERT_TRUE(chrome.has_value());
  const Json* events = chrome->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::size_t complete = 0;
  bool saw_cell_span = false;
  for (const Json& e : events->items()) {
    if (e.find("ph")->string_or("") != "X") continue;
    ++complete;
    EXPECT_GE(e.find("ts")->number_or(-1), 0);
    EXPECT_GE(e.find("dur")->number_or(-1), 0);
    if (e.find("name")->string_or("") == "supervisor.cell") saw_cell_span = true;
  }
  EXPECT_GE(complete, 6u);  // >= 3 supervisor.cell + 3 test.cell_body
  EXPECT_TRUE(saw_cell_span);
}

TEST_F(TraceIntegrationTest, FailedCellsCountIntoTheFailureCounter) {
  auto cfg = config("tracefail");
  cfg.trace_path = (dir_ / "trace.json").string();
  cfg.max_retries = 0;
  RunSupervisor sup(cfg);
  // A success first: the outcome counters must not stick to whichever
  // outcome a process saw first.
  sup.run_cell({"tracefail", "good", "c", ""},
               [](CellContext&) { return ok_summary(); });
  sup.run_cell({"tracefail", "bad", "c", ""}, [](CellContext&) -> CellSummary {
    throw std::runtime_error("boom");
  });
  auto counters = counters_by_name();
  EXPECT_EQ(counters["supervisor.cells_started"], 2u);
  EXPECT_EQ(counters["supervisor.cells_ok"], 1u);
  EXPECT_EQ(counters["supervisor.cells_failed"], 1u);
  EXPECT_TRUE(sup.finalize());
}

TEST_F(TraceIntegrationTest, ParseBenchCliAcceptsTraceFlag) {
  std::string error;
  {
    const char* argv[] = {"bench", "--trace", "out_trace.json"};
    auto cfg = parse_bench_cli("t", 3, argv, error);
    ASSERT_TRUE(cfg.has_value()) << error;
    EXPECT_EQ(cfg->trace_path, "out_trace.json");
  }
  {
    const char* argv[] = {"bench", "--trace"};
    EXPECT_FALSE(parse_bench_cli("t", 2, argv, error).has_value());
    EXPECT_NE(error.find("--trace"), std::string::npos);
  }
  {
    const char* argv[] = {"bench"};
    auto cfg = parse_bench_cli("t", 1, argv, error);
    ASSERT_TRUE(cfg.has_value());
    EXPECT_TRUE(cfg->trace_path.empty());
  }
}

// The end-to-end check: a tiny 2-class-ish shallow scenario must light up
// the span taxonomy documented in DESIGN.md §12 across every layer it
// crosses — env generation, cleaning, split + audit, featurization, the
// train/eval phase, and the forest kernels — plus the hot-path counters.
TEST_F(TraceIntegrationTest, EndToEndShallowScenarioEmitsTaxonomySpans) {
  trace::set_mode(trace::Mode::kSpans);

  EnvConfig ec;
  ec.seed = 1;
  ec.flows_per_class_iscx = 3;
  ec.backbone_flows = 4;
  ec.max_train_packets = 400;
  ec.max_test_packets = 200;
  BenchmarkEnv env(ec);

  ScenarioOptions opts;
  opts.split = dataset::SplitPolicy::PerFlow;
  opts.seed = 1;
  auto result = run_shallow_scenario(env, dataset::TaskId::VpnBinary,
                                     ShallowKind::RandomForest, true, opts);
  EXPECT_GT(result.metrics.accuracy, 0.0);

  auto phases = phases_by_name();
  for (const char* span :
       {"env.generate_dataset", "dataset.clean_trace", "dataset.split",
        "dataset.audit_split", "pipeline.partition", "pipeline.featurize",
        "pipeline.train_eval", "featurize.header", "ml.forest.fit",
        "ml.forest.predict"}) {
    ASSERT_TRUE(phases.count(span)) << "missing span: " << span;
    EXPECT_GE(phases[span].count, 1u) << span;
  }
  // Nested spans can never out-wall their parent phase.
  EXPECT_LE(phases["ml.forest.fit"].wall_ns, phases["pipeline.train_eval"].wall_ns);

  auto counters = counters_by_name();
  for (const char* ctr : {"clean.packets_in", "clean.bytes_parsed",
                          "featurize.packets", "ml.trees_fit",
                          "audit.test_probes"}) {
    ASSERT_TRUE(counters.count(ctr)) << "missing counter: " << ctr;
  }
  EXPECT_GT(counters["clean.packets_in"], 0u);
  EXPECT_GT(counters["featurize.packets"], 0u);
  EXPECT_GT(counters["ml.trees_fit"], 0u);

  // Balanced RAII: nothing left open after the scenario returned.
  EXPECT_EQ(trace::open_span_count(), 0u);
}

// The boosted half of Table 8: an XGBoost-style cell on a multi-class task
// must show ml.gbdt.fit > ml.gbdt.round > ml.gbdt.tree (one tree span per
// class per round, emitted by whichever pool thread fitted that tree) plus
// ml.gbdt.predict, and count every tree in ml.trees_fit.
TEST_F(TraceIntegrationTest, GbdtScenarioEmitsRoundAndTreeSpans) {
  trace::set_mode(trace::Mode::kSpans);

  EnvConfig ec;
  ec.seed = 1;
  ec.flows_per_class_iscx = 3;
  ec.backbone_flows = 4;
  ec.max_train_packets = 400;
  ec.max_test_packets = 200;
  BenchmarkEnv env(ec);

  ScenarioOptions opts;
  opts.split = dataset::SplitPolicy::PerFlow;
  opts.seed = 1;
  run_shallow_scenario(env, dataset::TaskId::VpnApp, ShallowKind::XgboostStyle,
                       true, opts);
  const auto classes =
      static_cast<std::uint64_t>(env.task_dataset(dataset::TaskId::VpnApp).num_classes);
  ASSERT_GT(classes, 2u) << "needs a softmax task";

  auto phases = phases_by_name();
  for (const char* span :
       {"ml.gbdt.fit", "ml.gbdt.round", "ml.gbdt.tree", "ml.gbdt.predict"}) {
    ASSERT_TRUE(phases.count(span)) << "missing span: " << span;
    EXPECT_GE(phases[span].count, 1u) << span;
  }
  EXPECT_EQ(phases["ml.gbdt.tree"].count, phases["ml.gbdt.round"].count * classes);
  EXPECT_LE(phases["ml.gbdt.fit"].wall_ns, phases["pipeline.train_eval"].wall_ns);

  auto counters = counters_by_name();
  EXPECT_GE(counters["ml.trees_fit"], classes);
  EXPECT_EQ(counters["ml.trees_fit"], phases["ml.gbdt.tree"].count);
  EXPECT_EQ(trace::open_span_count(), 0u);
}

TEST_F(TraceIntegrationTest, SummaryModeScenarioKeepsAggregatesOnly) {
  const auto run = [] {
    EnvConfig ec;
    ec.seed = 2;
    ec.flows_per_class_iscx = 3;
    BenchmarkEnv env(ec);
    ScenarioOptions opts;
    opts.seed = 2;
    return run_shallow_scenario(env, dataset::TaskId::VpnBinary,
                                ShallowKind::RandomForest, true, opts);
  };
  const auto untraced = run();
  trace::set_mode(trace::Mode::kSummary);
  const auto result = run();
  EXPECT_GT(result.metrics.accuracy, 0.0);
  EXPECT_EQ(result.metrics.accuracy, untraced.metrics.accuracy);
  EXPECT_EQ(result.metrics.macro_f1, untraced.metrics.macro_f1);

  EXPECT_FALSE(trace::phase_stats().empty());
  EXPECT_TRUE(trace::events().empty())
      << "summary mode must not retain timeline events";
}

// Tracing observes computation, it never perturbs it: each instrumented
// kernel runs under off, summary and spans at one pool width (so only the
// mode varies), and its raw output bytes must be identical in all three.
TEST_F(TraceIntegrationTest, ModesNeverChangeResults) {
  ScopedThreads threads(2);
  const ml::Matrix a = random_matrix(224, 192, 301);
  const ml::Matrix b = random_matrix(192, 160, 302);
  const ml::Matrix x = random_matrix(420, 20, 303);
  std::vector<int> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 5);
  const ml::Matrix emb = random_matrix(360, 24, 304);
  std::vector<int> labels(emb.rows());
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<int>(i % 6);
  trafficgen::GenOptions gen;
  gen.seed = 42;
  gen.flows_per_class = 4;
  const auto packets = trafficgen::generate_iscx_vpn(gen).packets;

  const std::pair<const char*, std::function<std::string()>> kernels[] = {
      {"matmul", [&] { return raw_bytes(ml::matmul(a, b).data()); }},
      {"forest", [&] {
         ml::ForestConfig cfg;
         cfg.num_trees = 24;
         ml::RandomForest rf(cfg);
         rf.fit(x, y, 5);
         return raw_bytes(rf.predict(x)) + raw_bytes(rf.feature_importance());
       }},
      {"knn_purity", [&] {
         auto p = ml::knn_purity(emb, labels, 5);
         p.histogram.push_back(p.mean_purity);
         return raw_bytes(p.histogram);
       }},
      {"pcap_roundtrip", [&] {
         std::stringstream ss;
         {
           net::PcapWriter writer(ss);
           writer.write_all(packets);
         }
         std::string out = ss.str();
         net::PcapReader reader(ss);
         for (const auto& p : reader.read_all()) out += raw_bytes(p.data);
         return out;
       }},
      {"gbdt", [&] {
         ml::GradientBoosting gb;
         gb.fit(x, y, 5);
         return raw_bytes(gb.decision_function(x).data());
       }},
  };
  for (const auto& [name, run] : kernels) {
    trace::set_mode(trace::Mode::kOff);
    const std::string off = run();
    ASSERT_FALSE(off.empty()) << name;
    for (const auto m : {trace::Mode::kSummary, trace::Mode::kSpans}) {
      trace::reset();
      trace::set_mode(m);
      EXPECT_TRUE(run() == off)
          << name << " output differs under " << trace::mode_name(m);
    }
  }
  EXPECT_FALSE(trace::phase_stats().empty()) << "the kernels emitted no spans";
}

}  // namespace
}  // namespace sugar::core
