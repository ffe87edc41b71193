// Scenario-diversity benchmark #2: test-time adversarial header
// perturbation (VPN-app, per-flow split). Training data is untouched; the
// held-out partition gets seeded, deterministic jitter on exactly the
// header fields the paper identifies as shortcut carriers — TTL, TCP
// window, TCP MSS — via the net::mutate jitter passes. Each model is
// measured at its clean baseline and under each single-field jitter plus
// the combined one, and every perturbed cell records its accuracy delta
// against the clean run (extra.perturb). Expected shape: the shallow RF,
// which leans on raw header values, loses the most; the encoder models
// degrade less but are not immune.
//
// Extra flags on top of the common bench CLI:
//   --ttl-jitter <n>      max TTL delta for the ttl/all columns (default 8)
//   --window-jitter <n>   max TCP window delta (default 4096)
//   --mss-jitter <n>      max TCP MSS delta (default 120)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/envparse.h"

using namespace sugar;

namespace {

struct PerturbCliOptions {
  int ttl_jitter = 8;
  int window_jitter = 4096;
  int mss_jitter = 120;
};

bool parse_perturb_flags(const std::vector<std::string>& args,
                         PerturbCliOptions& out, std::string& error) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&](int& dst, int hi) {
      if (i + 1 >= args.size()) {
        error = "missing value for " + arg;
        return false;
      }
      int v = 0;
      if (!core::parse_number(args[++i], v) || v < 1 || v > hi) {
        error = "malformed or out-of-range value for " + arg + " '" + args[i] + "'";
        return false;
      }
      dst = v;
      return true;
    };
    if (arg == "--ttl-jitter") {
      if (!value(out.ttl_jitter, 254)) return false;
    } else if (arg == "--window-jitter") {
      if (!value(out.window_jitter, 65534)) return false;
    } else if (arg == "--mss-jitter") {
      if (!value(out.mss_jitter, 60000)) return false;
    } else {
      error = "unknown flag " + arg;
      return false;
    }
  }
  return true;
}

struct ModelSpec {
  const char* name;
  bool shallow;
  bool include_ip;  // shallow only
};

const std::vector<ModelSpec> kModels = {
    {"RF", true, true},
    {"RF-noip", true, false},
    {"NetMamba-frozen", false, false},
};

std::string shallow_perturb_key(dataset::TaskId task, bool include_ip,
                                const core::ScenarioOptions& opts) {
  return core::generic_cell_key(
      {"shallow", core::to_string(core::ShallowKind::RandomForest),
       dataset::to_string(task), dataset::to_string(opts.split),
       include_ip ? "ip" : "noip", std::to_string(opts.seed),
       opts.perturb.tag()});
}

core::CellOutcome run_model_cell(core::RunSupervisor& sup, core::BenchmarkEnv& env,
                                 dataset::TaskId task, const ModelSpec& model,
                                 std::string col, const core::ScenarioOptions& opts,
                                 double baseline_accuracy, bool baseline_ok) {
  core::CellSpec spec{"perturb", model.name, std::move(col), {}};
  if (model.shallow)
    spec.key = shallow_perturb_key(task, model.include_ip, opts);
  else
    spec.key = core::scenario_cell_key(
        task, "perturb:" + replearn::to_string(replearn::ModelKind::NetMamba), opts);
  return sup.run_cell(spec, [&, opts](core::CellContext& ctx) {
    core::ScenarioOptions o = opts;
    ctx.apply(o);
    core::CellSummary s =
        model.shallow
            ? core::summarize(core::run_shallow_scenario(
                  env, task, core::ShallowKind::RandomForest, model.include_ip, o))
            : core::summarize(core::run_packet_scenario(
                  env, task, replearn::ModelKind::NetMamba, o));
    core::Json p = core::Json::object();
    p.set("ttl", core::Json(opts.perturb.ttl_jitter));
    p.set("window", core::Json(opts.perturb.window_jitter));
    p.set("mss", core::Json(opts.perturb.mss_jitter));
    p.set("baseline_ok", core::Json(baseline_ok));
    if (baseline_ok) {
      p.set("baseline_accuracy", core::Json(baseline_accuracy));
      p.set("accuracy_delta", core::Json(s.accuracy - baseline_accuracy));
    }
    s.extra.set("perturb", std::move(p));
    return s;
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  std::vector<std::string> extra;
  auto cfg = core::parse_bench_cli("perturbation", argc, argv, error, &extra);
  PerturbCliOptions cli;
  if (cfg && !parse_perturb_flags(extra, cli, error)) cfg.reset();
  if (!cfg) {
    std::fprintf(stderr, "bench_perturbation: %s\n%s", error.c_str(),
                 core::bench_usage("perturbation").c_str());
    std::fprintf(stderr,
                 "  --ttl-jitter <n>      max TTL delta (default 8)\n"
                 "  --window-jitter <n>   max TCP window delta (default 4096)\n"
                 "  --mss-jitter <n>      max TCP MSS delta (default 120)\n");
    return 2;
  }
  core::RunSupervisor sup(std::move(*cfg));
  core::BenchmarkEnv env;
  const auto task = dataset::TaskId::VpnApp;

  // Column grid: the clean baseline plus each single-field jitter and the
  // combined one. The baseline runs first (sequentially) because every
  // perturbed cell records its delta against it.
  struct Column {
    const char* name;
    dataset::PerturbSpec spec;
  };
  const std::vector<Column> columns = {
      {"baseline", {}},
      {"ttl", {cli.ttl_jitter, 0, 0}},
      {"window", {0, cli.window_jitter, 0}},
      {"mss", {0, 0, cli.mss_jitter}},
      {"all", {cli.ttl_jitter, cli.window_jitter, cli.mss_jitter}},
  };

  std::vector<std::vector<core::CellOutcome>> grid(kModels.size());
  for (std::size_t m = 0; m < kModels.size(); ++m) {
    core::ScenarioOptions base;
    base.split = dataset::SplitPolicy::PerFlow;
    auto baseline = run_model_cell(sup, env, task, kModels[m], columns[0].name,
                                   base, 0.0, false);
    grid[m].push_back(baseline);
    for (std::size_t c = 1; c < columns.size(); ++c) {
      core::ScenarioOptions opts = base;
      opts.perturb = columns[c].spec;
      grid[m].push_back(run_model_cell(sup, env, task, kModels[m],
                                       columns[c].name, opts,
                                       baseline.summary.accuracy,
                                       baseline.ok()));
    }
  }

  std::vector<std::string> header = {"Model"};
  for (const auto& col : columns) header.push_back(col.name);
  core::MarkdownTable table{header};
  for (std::size_t m = 0; m < kModels.size(); ++m) {
    std::vector<std::string> row = {kModels[m].name};
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const auto& o = grid[m][c];
      if (c == 0 || !o.ok() || !grid[m][0].ok()) {
        row.push_back(bench::cell_pct_ac(o));
      } else {
        char buf[48];
        std::snprintf(buf, sizeof buf, "%.1f (%+.1f)", 100 * o.summary.accuracy,
                      100 * (o.summary.accuracy - grid[m][0].summary.accuracy));
        row.push_back(buf);
      }
    }
    table.add_row(row);
  }
  core::print_table(
      "Perturbation — accuracy (%) and delta vs clean baseline under "
      "test-time header jitter (VPN-app, per-flow split)",
      table);

  bench::print_ingest(env, {task});
  return sup.finalize() ? 0 : 1;
}
