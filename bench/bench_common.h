// Shared helpers for the per-table bench binaries. Every bench runs its
// cells through a core::RunSupervisor (watchdog, divergence retry,
// checkpoint/resume, BENCH_<table>.json artifact); the helpers here wire
// the common cell shapes (packet / flow / shallow scenario) into it.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/env.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "core/supervisor.h"

namespace sugar::bench {

inline std::string ac_f1(const ml::Metrics& m) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f / %.1f", 100 * m.accuracy, 100 * m.macro_f1);
  return buf;
}

/// Parses the strict bench CLI (--json / --resume / --cell-timeout-s /
/// --max-retries / --trace); malformed or unknown flags print usage and
/// exit 2.
inline core::RunSupervisor make_supervisor(std::string_view bench_name, int argc,
                                           const char* const* argv) {
  std::string error;
  auto cfg = core::parse_bench_cli(bench_name, argc, argv, error);
  if (!cfg) {
    std::fprintf(stderr, "bench_%.*s: %s\n%s",
                 static_cast<int>(bench_name.size()), bench_name.data(),
                 error.c_str(), core::bench_usage(bench_name).c_str());
    std::exit(2);
  }
  return core::RunSupervisor(std::move(*cfg));
}

/// One packet-scenario cell through the supervisor boundary.
inline core::CellOutcome run_packet_cell(core::RunSupervisor& sup,
                                         core::BenchmarkEnv& env, std::string table,
                                         std::string row, std::string col,
                                         dataset::TaskId task,
                                         replearn::ModelKind kind,
                                         const core::ScenarioOptions& opts) {
  core::CellSpec spec{std::move(table), std::move(row), std::move(col),
                      core::scenario_cell_key(task, replearn::to_string(kind), opts)};
  return sup.run_cell(spec, [&](core::CellContext& ctx) {
    core::ScenarioOptions o = opts;
    ctx.apply(o);
    return core::summarize(core::run_packet_scenario(env, task, kind, o));
  });
}

/// One flow-scenario cell (Table 9).
inline core::CellOutcome run_flow_cell(core::RunSupervisor& sup,
                                       core::BenchmarkEnv& env, std::string table,
                                       std::string row, std::string col,
                                       dataset::TaskId task, replearn::ModelKind kind,
                                       const core::ScenarioOptions& opts,
                                       std::size_t min_flow_len = 5) {
  core::CellSpec spec{
      std::move(table), std::move(row), std::move(col),
      core::scenario_cell_key(task, "flow:" + replearn::to_string(kind), opts)};
  return sup.run_cell(spec, [&](core::CellContext& ctx) {
    core::ScenarioOptions o = opts;
    ctx.apply(o);
    return core::summarize(core::run_flow_scenario(env, task, kind, o, min_flow_len));
  });
}

/// One shallow-baseline cell (Table 8, Figs 1/5/6).
inline core::CellOutcome run_shallow_cell(core::RunSupervisor& sup,
                                          core::BenchmarkEnv& env, std::string table,
                                          std::string row, std::string col,
                                          dataset::TaskId task, core::ShallowKind kind,
                                          bool include_ip,
                                          const core::ScenarioOptions& opts) {
  core::CellSpec spec{
      std::move(table), std::move(row), std::move(col),
      core::generic_cell_key({"shallow", core::to_string(kind),
                              dataset::to_string(task), dataset::to_string(opts.split),
                              include_ip ? "ip" : "noip", std::to_string(opts.seed)})};
  return sup.run_cell(spec, [&](core::CellContext& ctx) {
    core::ScenarioOptions o = opts;
    ctx.apply(o);
    return core::summarize(core::run_shallow_scenario(env, task, kind, include_ip, o));
  });
}

/// "AC / F1" cell text, or FAILED(<reason>).
inline std::string cell_ac_f1(const core::CellOutcome& o) {
  return core::RunSupervisor::format_cell(o);
}

/// Accuracy-as-percent cell text, or FAILED(<reason>).
inline std::string cell_pct_ac(const core::CellOutcome& o) {
  return core::RunSupervisor::format_cell(
      o, core::MarkdownTable::pct(o.summary.accuracy));
}

/// Macro-F1-as-percent cell text, or FAILED(<reason>).
inline std::string cell_pct_f1(const core::CellOutcome& o) {
  return core::RunSupervisor::format_cell(
      o, core::MarkdownTable::pct(o.summary.macro_f1));
}

inline const std::vector<dataset::TaskId> kAllTasks = {
    dataset::TaskId::VpnBinary, dataset::TaskId::VpnService,
    dataset::TaskId::VpnApp,    dataset::TaskId::UstcBinary,
    dataset::TaskId::UstcApp,   dataset::TaskId::Tls120,
};

inline const std::vector<dataset::TaskId> kHardTasks = {
    dataset::TaskId::VpnApp,
    dataset::TaskId::Tls120,
};

/// Prints the ingestion-health line for every source dataset the given tasks
/// draw from; scenario tables append this so capture damage (malformed
/// frames) is visible next to the accuracy numbers it may have biased.
inline void print_ingest(core::BenchmarkEnv& env,
                         const std::vector<dataset::TaskId>& tasks) {
  std::vector<dataset::SourceDataset> seen;
  std::vector<const dataset::CleaningReport*> reports;
  for (auto task : tasks) {
    auto src = dataset::source_of(task);
    if (std::find(seen.begin(), seen.end(), src) != seen.end()) continue;
    seen.push_back(src);
    reports.push_back(&env.cleaning_report(src));
  }
  std::printf("\nIngestion health:\n");
  core::print_ingest_summaries(reports);
}

}  // namespace sugar::bench
