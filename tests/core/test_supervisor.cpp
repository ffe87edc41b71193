#include "core/supervisor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "ml/guard.h"

namespace sugar::core {
namespace {

namespace fs = std::filesystem;

CellSummary ok_summary(double accuracy = 0.5, double macro_f1 = 0.25) {
  CellSummary s;
  s.accuracy = accuracy;
  s.macro_f1 = macro_f1;
  return s;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sugar_supervisor_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  SupervisorConfig config(const std::string& name = "test") {
    SupervisorConfig cfg;
    cfg.bench_name = name;
    cfg.json_path = (dir_ / ("BENCH_" + name + ".json")).string();
    cfg.quiet = true;
    return cfg;
  }

  fs::path dir_;
};

TEST_F(SupervisorTest, OkCellJournalsAndFinalizeWritesValidArtifact) {
  auto cfg = config();
  RunSupervisor sup(cfg);
  auto outcome = sup.run_cell({"t", "row", "col", ""},
                              [](CellContext&) { return ok_summary(); });
  EXPECT_EQ(outcome.status, CellStatus::kOk);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_TRUE(sup.finalize());

  auto doc = Json::parse(read_file(cfg.json_path));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("bench")->string_or(""), "test");
  EXPECT_EQ(doc->find("health")->find("ok")->number_or(0), 1);
  ASSERT_EQ(doc->find("cells")->items().size(), 1u);
  EXPECT_EQ(doc->find("cells")->items()[0].find("status")->string_or(""), "ok");

  std::size_t torn = 0;
  auto journal = load_jsonl(cfg.json_path + ".journal.jsonl", &torn);
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(torn, 0u);
  EXPECT_EQ(journal[0].find("status")->string_or(""), "ok");
}

TEST_F(SupervisorTest, WatchdogCancelsCooperativelyHangingCell) {
  auto cfg = config();
  cfg.cell_timeout_s = 0.2;
  RunSupervisor sup(cfg);

  auto t0 = std::chrono::steady_clock::now();
  auto outcome = sup.run_cell({"t", "hang", "c", ""}, [](CellContext& ctx) {
    // A cooperative hang: spins forever but polls the watchdog token the
    // way the real epoch loops do.
    for (;;) {
      ml::throw_if_cancelled(ctx.cancel, "test-hang");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return ok_summary();
  });
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

  EXPECT_EQ(outcome.status, CellStatus::kFailed);
  EXPECT_EQ(outcome.error, RunErrorKind::kTimeout);
  EXPECT_EQ(outcome.attempts, 1);  // timeouts are not retried
  EXPECT_NE(outcome.message.find("deadline"), std::string::npos);
  EXPECT_LT(elapsed, 5.0);  // unwound promptly, not stuck forever
  EXPECT_TRUE(sup.finalize());
}

TEST_F(SupervisorTest, DivergenceRetriesWithPerturbedSeedAndHalvedLr) {
  RunSupervisor sup(config());
  int calls = 0;
  auto outcome = sup.run_cell({"t", "diverge", "c", ""}, [&](CellContext& ctx) {
    ++calls;
    if (ctx.tweak.attempt == 0) {
      EXPECT_EQ(ctx.tweak.seed_bump, 0u);
      EXPECT_DOUBLE_EQ(ctx.tweak.lr_scale, 1.0);
      throw ml::DivergenceError("loss went NaN");
    }
    // The retry decorrelates the seed and halves the learning rate.
    EXPECT_NE(ctx.tweak.seed_bump, 0u);
    EXPECT_DOUBLE_EQ(ctx.tweak.lr_scale, 0.5);
    ScenarioOptions opts;
    opts.seed = 5;
    ctx.apply(opts);
    EXPECT_NE(opts.seed, 5u);
    EXPECT_DOUBLE_EQ(opts.lr_scale, 0.5);
    EXPECT_EQ(opts.cancel, ctx.cancel);
    return ok_summary();
  });
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(outcome.status, CellStatus::kOk);
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(sup.health().retried, 1);
}

TEST_F(SupervisorTest, DivergenceRetriesAreBounded) {
  auto cfg = config();
  cfg.max_retries = 2;
  RunSupervisor sup(cfg);
  int calls = 0;
  auto outcome = sup.run_cell({"t", "always-nan", "c", ""}, [&](CellContext&) {
    ++calls;
    throw ml::DivergenceError("always diverges");
    return ok_summary();
  });
  EXPECT_EQ(calls, 3);  // initial attempt + 2 retries
  EXPECT_EQ(outcome.status, CellStatus::kFailed);
  EXPECT_EQ(outcome.error, RunErrorKind::kDivergence);
  EXPECT_EQ(outcome.attempts, 3);
}

TEST_F(SupervisorTest, DeterministicErrorsAreNotRetried) {
  RunSupervisor sup(config());
  int empty_calls = 0, internal_calls = 0;

  auto empty = sup.run_cell({"t", "empty", "c", ""}, [&](CellContext&) {
    ++empty_calls;
    throw RunError(RunErrorKind::kEmptyPartition, "no samples");
    return ok_summary();
  });
  EXPECT_EQ(empty.error, RunErrorKind::kEmptyPartition);
  EXPECT_EQ(empty_calls, 1);

  auto internal = sup.run_cell({"t", "boom", "c", ""}, [&](CellContext&) {
    ++internal_calls;
    throw std::runtime_error("unexpected");
    return ok_summary();
  });
  EXPECT_EQ(internal.error, RunErrorKind::kInternal);
  EXPECT_EQ(internal_calls, 1);

  auto invariant = sup.run_cell({"t", "inv", "c", ""}, [&](CellContext&) {
    ml::check_internal(false, "shape mismatch");
    return ok_summary();
  });
  EXPECT_EQ(invariant.error, RunErrorKind::kInternal);
  EXPECT_EQ(sup.health().failed, 3);
}

TEST_F(SupervisorTest, ResumeSkipsOkCellsAndRecomputesFailedOnes) {
  auto cfg = config();
  {
    RunSupervisor sup(cfg);
    sup.run_cell({"t", "good", "c", "key-good"},
                 [](CellContext&) { return ok_summary(0.9, 0.8); });
    sup.run_cell({"t", "bad", "c", "key-bad"}, [](CellContext&) -> CellSummary {
      throw std::runtime_error("first run fails");
    });
    EXPECT_TRUE(sup.finalize());
  }

  auto cfg2 = cfg;
  cfg2.resume = true;
  RunSupervisor sup(cfg2);
  bool good_recomputed = false;
  auto good = sup.run_cell({"t", "good", "c", "key-good"}, [&](CellContext&) {
    good_recomputed = true;
    return ok_summary();
  });
  auto bad = sup.run_cell({"t", "bad", "c", "key-bad"},
                          [](CellContext&) { return ok_summary(0.4, 0.3); });

  EXPECT_FALSE(good_recomputed);  // journaled ok cell: skipped
  EXPECT_EQ(good.status, CellStatus::kOkFromJournal);
  EXPECT_DOUBLE_EQ(good.summary.accuracy, 0.9);  // summary restored
  EXPECT_EQ(bad.status, CellStatus::kOk);        // failed cell: recomputed
  EXPECT_EQ(sup.health().from_journal, 1);
  EXPECT_TRUE(sup.finalize());
}

TEST_F(SupervisorTest, FormatCellRendersOkAndFailed) {
  CellOutcome ok;
  ok.status = CellStatus::kOk;
  ok.summary = ok_summary(0.5, 0.25);
  EXPECT_EQ(RunSupervisor::format_cell(ok), "50.0 / 25.0");
  EXPECT_EQ(RunSupervisor::format_cell(ok, "custom"), "custom");

  CellOutcome failed;
  failed.status = CellStatus::kFailed;
  failed.error = RunErrorKind::kTimeout;
  EXPECT_EQ(RunSupervisor::format_cell(failed), "FAILED(timeout)");
  failed.error = RunErrorKind::kEmptyPartition;
  EXPECT_EQ(RunSupervisor::format_cell(failed, "x"), "FAILED(empty-partition)");
}

TEST_F(SupervisorTest, FinalizeLeavesNoTempFiles) {
  RunSupervisor sup(config());
  sup.run_cell({"t", "r", "c", ""}, [](CellContext&) { return ok_summary(); });
  EXPECT_TRUE(sup.finalize());
  // Only the artifact and the journal remain — no .tmp from the
  // temp-then-rename writes.
  std::size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    ++entries;
    EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
        << entry.path();
  }
  EXPECT_EQ(entries, 2u);
}

// The acceptance scenario from the issue: a grid where one cell throws, one
// diverges on every attempt, and one hangs; the run must still complete,
// render FAILED for exactly those cells, write a valid artifact, and a
// resumed run must recompute only the failed cells.
TEST_F(SupervisorTest, MixedFailureGridDegradesGracefullyAndResumes) {
  auto cfg = config("grid");
  cfg.cell_timeout_s = 0.2;
  cfg.max_retries = 1;

  const std::vector<std::string> rows{"m1", "m2", "m3"};
  const std::vector<std::string> cols{"taskA", "taskB"};
  auto cell_fn = [](const std::string& row,
                    const std::string& col) -> RunSupervisor::CellFn {
    return [row, col](CellContext& ctx) {
      if (row == "m1" && col == "taskB") throw std::runtime_error("boom");
      if (row == "m2" && col == "taskA")
        throw ml::DivergenceError("NaN at epoch 0");
      if (row == "m3" && col == "taskB")
        for (;;) {
          ml::throw_if_cancelled(ctx.cancel, "grid-hang");
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      return ok_summary(0.7, 0.6);
    };
  };

  std::vector<std::vector<std::string>> rendered;
  {
    RunSupervisor sup(cfg);
    for (const auto& row : rows) {
      std::vector<std::string> line{row};
      for (const auto& col : cols) {
        auto outcome = sup.run_cell(
            {"grid", row, col, generic_cell_key({"grid", row, col})},
            cell_fn(row, col));
        line.push_back(RunSupervisor::format_cell(outcome));
      }
      rendered.push_back(std::move(line));
    }
    EXPECT_EQ(sup.health().cells, 6);
    EXPECT_EQ(sup.health().ok, 3);
    EXPECT_EQ(sup.health().failed, 3);
    EXPECT_TRUE(sup.finalize());
  }

  // Every row rendered; FAILED shows up for exactly the three bad cells.
  ASSERT_EQ(rendered.size(), 3u);
  EXPECT_EQ(rendered[0][1], "70.0 / 60.0");
  EXPECT_EQ(rendered[0][2], "FAILED(internal)");
  EXPECT_EQ(rendered[1][1], "FAILED(divergence)");
  EXPECT_EQ(rendered[1][2], "70.0 / 60.0");
  EXPECT_EQ(rendered[2][1], "70.0 / 60.0");
  EXPECT_EQ(rendered[2][2], "FAILED(timeout)");

  // The artifact survived the failures and is valid, complete JSON.
  auto doc = Json::parse(read_file(cfg.json_path));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("cells")->items().size(), 6u);
  EXPECT_EQ(doc->find("health")->find("failed")->number_or(0), 3);

  // Resume: ok cells come from the journal; only failed cells recompute.
  auto cfg2 = cfg;
  cfg2.resume = true;
  RunSupervisor sup(cfg2);
  int recomputed = 0;
  for (const auto& row : rows)
    for (const auto& col : cols) {
      auto outcome = sup.run_cell(
          {"grid", row, col, generic_cell_key({"grid", row, col})},
          [&](CellContext&) {
            ++recomputed;
            return ok_summary(0.9, 0.9);
          });
      EXPECT_TRUE(outcome.ok()) << row << "/" << col;
    }
  EXPECT_EQ(recomputed, 3);  // exactly the previously-failed cells
  EXPECT_EQ(sup.health().from_journal, 3);
  EXPECT_EQ(sup.health().failed, 0);
  EXPECT_TRUE(sup.finalize());
}

TEST_F(SupervisorTest, ArtifactRecordsSubstrateConfigAndWallSeconds) {
  auto cfg = config("wall");
  RunSupervisor sup(cfg);
  sup.run_cell({"wall", "r", "c", ""}, [](CellContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    return ok_summary();
  });
  EXPECT_TRUE(sup.finalize());

  auto doc = Json::parse(read_file(cfg.json_path));
  ASSERT_TRUE(doc.has_value());
  EXPECT_GE(doc->find("schema_version")->number_or(0), 2);
  const Json* config_obj = doc->find("config");
  ASSERT_NE(config_obj, nullptr);
  EXPECT_GE(config_obj->find("threads")->number_or(0), 1);
  const auto& cells = doc->find("cells")->items();
  ASSERT_EQ(cells.size(), 1u);
  const Json* wall = cells[0].find("wall_seconds");
  ASSERT_NE(wall, nullptr);
  EXPECT_GE(wall->number_or(-1), 0.005 - 1e-9);
}

TEST(BenchCli, ParsesStrictFlagsAndRejectsMalformedOnes) {
  std::string error;
  {
    const char* argv[] = {"bench", "--json", "out.json", "--cell-timeout-s",
                          "2.5",   "--max-retries", "0"};
    auto cfg = parse_bench_cli("t", 7, argv, error);
    ASSERT_TRUE(cfg.has_value()) << error;
    EXPECT_EQ(cfg->json_path, "out.json");
    EXPECT_EQ(cfg->journal_path, "out.json.journal.jsonl");
    EXPECT_DOUBLE_EQ(cfg->cell_timeout_s, 2.5);
    EXPECT_EQ(cfg->max_retries, 0);
    EXPECT_FALSE(cfg->resume);
  }
  {
    const char* argv[] = {"bench", "--resume", "j.jsonl"};
    auto cfg = parse_bench_cli("t", 3, argv, error);
    ASSERT_TRUE(cfg.has_value());
    EXPECT_TRUE(cfg->resume);
    EXPECT_EQ(cfg->journal_path, "j.jsonl");
    EXPECT_EQ(cfg->json_path, "BENCH_t.json");  // default artifact name
  }
  {
    // Whole-string parsing: "2x" is malformed, not 2.
    const char* argv[] = {"bench", "--cell-timeout-s", "2x"};
    EXPECT_FALSE(parse_bench_cli("t", 3, argv, error).has_value());
    EXPECT_NE(error.find("--cell-timeout-s"), std::string::npos);
  }
  {
    const char* argv[] = {"bench", "--cell-timeout-s", "-1"};
    EXPECT_FALSE(parse_bench_cli("t", 3, argv, error).has_value());
  }
  for (const char* non_finite : {"nan", "inf"}) {
    // from_chars parses both, and `nan <= 0` is false: the deadline must
    // still be refused, or the watchdog would wait on a non-finite duration.
    const char* argv[] = {"bench", "--cell-timeout-s", non_finite};
    EXPECT_FALSE(parse_bench_cli("t", 3, argv, error).has_value()) << non_finite;
    EXPECT_NE(error.find("--cell-timeout-s"), std::string::npos) << non_finite;
  }
  {
    const char* argv[] = {"bench", "--json"};
    EXPECT_FALSE(parse_bench_cli("t", 2, argv, error).has_value());
    EXPECT_NE(error.find("missing value"), std::string::npos);
  }
  {
    const char* argv[] = {"bench", "--wat"};
    EXPECT_FALSE(parse_bench_cli("t", 2, argv, error).has_value());
    EXPECT_NE(error.find("unknown flag"), std::string::npos);
  }
  {
    // Cells always run one at a time, so a cell-concurrency flag is an
    // unknown flag like any other. (Spelled as two literals so a search for
    // its name finds no live use.)
    const char* argv[] = {"bench", "--parallel" "-cells", "4"};
    EXPECT_FALSE(parse_bench_cli("t", 3, argv, error).has_value());
    EXPECT_NE(error.find("unknown flag"), std::string::npos);
  }
}

TEST(CellKeys, ScenarioKeyCoversResultAffectingOptionsOnly) {
  ScenarioOptions a;
  ScenarioOptions b = a;
  EXPECT_EQ(scenario_cell_key(dataset::TaskId::Tls120, "m", a),
            scenario_cell_key(dataset::TaskId::Tls120, "m", b));

  // Runtime knobs (supervisor-injected) must not change the fingerprint...
  b.lr_scale = 0.5;
  ml::CancelToken token;
  b.cancel = &token;
  EXPECT_EQ(scenario_cell_key(dataset::TaskId::Tls120, "m", a),
            scenario_cell_key(dataset::TaskId::Tls120, "m", b));

  // ...while every identity-bearing field does.
  ScenarioOptions c = a;
  c.seed = 6;
  EXPECT_NE(scenario_cell_key(dataset::TaskId::Tls120, "m", a),
            scenario_cell_key(dataset::TaskId::Tls120, "m", c));
  ScenarioOptions d = a;
  d.frozen = !d.frozen;
  EXPECT_NE(scenario_cell_key(dataset::TaskId::Tls120, "m", a),
            scenario_cell_key(dataset::TaskId::Tls120, "m", d));
  EXPECT_NE(scenario_cell_key(dataset::TaskId::Tls120, "m", a),
            scenario_cell_key(dataset::TaskId::VpnApp, "m", a));
  EXPECT_NE(scenario_cell_key(dataset::TaskId::Tls120, "m", a),
            scenario_cell_key(dataset::TaskId::Tls120, "m2", a));
}

TEST(CellKeys, ScenarioKeyCoversVariantAndPerturbation) {
  const auto key = [](const ScenarioOptions& o) {
    return scenario_cell_key(dataset::TaskId::VpnApp, "m", o);
  };
  ScenarioOptions base;
  const std::string base_key = key(base);

  // Identity variants and a zero perturbation leave the key at its legacy
  // form — checked-in goldens fingerprint cells with that shape.
  ScenarioOptions same = base;
  same.train_variant = trafficgen::TraceVariant{};
  same.test_variant = trafficgen::TraceVariant{};
  same.perturb = dataset::PerturbSpec{};
  EXPECT_EQ(key(same), base_key);
  EXPECT_EQ(base_key.find(";var_train="), std::string::npos);
  EXPECT_EQ(base_key.find(";perturb="), std::string::npos);

  // Every scenario-diversity knob must move the fingerprint.
  ScenarioOptions drift = base;
  drift.test_variant.drift_epoch = 2;
  EXPECT_NE(key(drift), base_key);
  ScenarioOptions fam = base;
  fam.train_variant.family = 1;
  EXPECT_NE(key(fam), base_key);
  EXPECT_NE(key(fam), key(drift));
  ScenarioOptions quic = base;
  quic.test_variant.quic_fraction = 0.5;
  EXPECT_NE(key(quic), base_key);
  ScenarioOptions imb = base;
  imb.train_variant.imbalance_gamma = 0.7;
  EXPECT_NE(key(imb), base_key);
  ScenarioOptions pert = base;
  pert.perturb.ttl_jitter = 8;
  EXPECT_NE(key(pert), base_key);
  ScenarioOptions pert2 = pert;
  pert2.perturb.window_jitter = 4096;
  EXPECT_NE(key(pert2), key(pert));

  // Train/test variants are fingerprinted separately: swapping the sides
  // is a different cell.
  ScenarioOptions ab = base;
  ab.test_variant.family = 1;
  ScenarioOptions ba = base;
  ba.train_variant.family = 1;
  EXPECT_NE(key(ab), key(ba));
}

// A changed perturbation (or variant) config must NOT resume from a
// checkpointed cell that ran under the old config: the journal fingerprint
// includes both, so the supervisor recomputes instead of serving stale
// results.
TEST_F(SupervisorTest, ChangedPerturbationInvalidatesJournaledCells) {
  auto cfg = config();
  ScenarioOptions clean;
  ScenarioOptions jittered;
  jittered.perturb.ttl_jitter = 8;
  jittered.perturb.window_jitter = 4096;
  const auto task = dataset::TaskId::VpnApp;
  {
    RunSupervisor sup(cfg);
    sup.run_cell({"t", "m", "clean", scenario_cell_key(task, "m", clean)},
                 [](CellContext&) { return ok_summary(0.9, 0.8); });
    EXPECT_TRUE(sup.finalize());
  }

  auto cfg2 = cfg;
  cfg2.resume = true;
  RunSupervisor sup(cfg2);
  // Identical config: served from the journal.
  bool recomputed = false;
  auto cached = sup.run_cell({"t", "m", "clean", scenario_cell_key(task, "m", clean)},
                             [&](CellContext&) {
                               recomputed = true;
                               return ok_summary(0.1, 0.1);
                             });
  EXPECT_FALSE(recomputed);
  EXPECT_EQ(cached.status, CellStatus::kOkFromJournal);

  // Same table/row/col but a perturbation now applies: must recompute.
  auto fresh = sup.run_cell({"t", "m", "clean", scenario_cell_key(task, "m", jittered)},
                            [](CellContext&) { return ok_summary(0.4, 0.3); });
  EXPECT_EQ(fresh.status, CellStatus::kOk);
  EXPECT_DOUBLE_EQ(fresh.summary.accuracy, 0.4);

  // And a drifted test variant is a third, distinct cell.
  ScenarioOptions drifted;
  drifted.test_variant.drift_epoch = 3;
  auto drift_cell = sup.run_cell(
      {"t", "m", "clean", scenario_cell_key(task, "m", drifted)},
      [](CellContext&) { return ok_summary(0.2, 0.2); });
  EXPECT_EQ(drift_cell.status, CellStatus::kOk);
  EXPECT_TRUE(sup.finalize());
}

}  // namespace
}  // namespace sugar::core
