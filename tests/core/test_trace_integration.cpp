// Integration coverage for the trace wiring: the supervisor's schema-4
// artifact (trace section, per-cell counter deltas, chrome trace file),
// the off-mode guarantee that artifacts stay schema 2 with no trace keys,
// the --trace CLI flag, and an end-to-end tiny-scale shallow scenario that
// must light up the expected span names and counter keys across env ->
// dataset -> pipeline -> ml.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/env.h"
#include "core/pipeline.h"
#include "core/supervisor.h"
#include "core/trace.h"

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
    cfg.backoff_base_s = 0;
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

  std::vector<CellSpec> specs;
  std::vector<RunSupervisor::CellFn> fns;
  for (int i = 0; i < 3; ++i) {
    specs.push_back({"traced", "r" + std::to_string(i), "c",
                     generic_cell_key({"traced", std::to_string(i)})});
    fns.push_back([](CellContext&) {
      SUGAR_TRACE_SPAN("test.cell_body");
      SUGAR_TRACE_COUNT("test.cell_work", 11);
      return ok_summary();
    });
  }
  auto outcomes = sup.run_cells(specs, fns);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.ok());
    // Per-cell counter deltas were captured (at least test.cell_work moved).
    bool saw_work = false;
    for (const Json& d : o.trace_counters.items())
      if (d.find("name")->string_or("") == "test.cell_work") {
        saw_work = true;
        EXPECT_GE(d.find("delta")->number_or(0), 11);
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
  trace::set_mode(trace::Mode::kSummary);

  EnvConfig ec;
  ec.seed = 2;
  ec.flows_per_class_iscx = 3;
  BenchmarkEnv env(ec);
  ScenarioOptions opts;
  opts.seed = 2;
  auto result = run_shallow_scenario(env, dataset::TaskId::VpnBinary,
                                     ShallowKind::RandomForest, true, opts);
  EXPECT_GT(result.metrics.accuracy, 0.0);

  EXPECT_FALSE(trace::phase_stats().empty());
  EXPECT_TRUE(trace::events().empty())
      << "summary mode must not retain timeline events";
}

}  // namespace
}  // namespace sugar::core
