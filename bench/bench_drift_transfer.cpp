// Scenario-diversity benchmark #1: temporal drift and cross-family
// transfer (VPN-app, per-flow split). Every cell trains on the canonical
// epoch-0 / family-A dataset and evaluates on a shifted one:
//
//   drift     rows: RF / RF-noip / frozen NetMamba
//             cols: epoch0 (in-distribution) .. epochN — the held-out
//             partition is regenerated from a drifted profile set (TTL
//             decays, windows grow, MSS clamps down, IATs stretch).
//   transfer  cols: A->A / A->B / B->B — family B re-parameterizes
//             subnets, TTL defaults, windows and MTU caps; A->B is the
//             cross-stack generalization cell, B->B its in-distribution
//             control.
//
// A final `curve` cell assembles the per-model epoch->accuracy series so
// the artifact carries the drift curve directly (extra.drift_curve) and
// the golden gate can pin its normalized form. Expected shape: all models
// degrade with drift epoch; the shallow RF's decay is the paper's point —
// header shortcuts are brittle under distribution shift.
//
// Extra flags on top of the common bench CLI:
//   --drift-epochs <n>   evaluate test epochs 1..n (default 3)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/envparse.h"

using namespace sugar;

namespace {

struct DriftCliOptions {
  int drift_epochs = 3;
};

bool parse_drift_flags(const std::vector<std::string>& args, DriftCliOptions& out,
                       std::string& error) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--drift-epochs") {
      if (i + 1 >= args.size()) {
        error = "missing value for " + arg;
        return false;
      }
      int v = 0;
      if (!core::parse_number(args[++i], v) || v < 1 || v > 8) {
        error = "malformed or out-of-range value for " + arg + " '" + args[i] + "'";
        return false;
      }
      out.drift_epochs = v;
    } else {
      error = "unknown flag " + arg;
      return false;
    }
  }
  return true;
}

/// The three-model grid every scenario cell iterates: the shallow RF with
/// and without IP features, plus the cheapest frozen deep encoder.
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

/// Per-cell provenance block (`extra.drift`) so a reader of the artifact
/// can attribute each accuracy to its train/test distribution pair.
core::Json drift_extra(const core::ScenarioOptions& opts) {
  core::Json d = core::Json::object();
  d.set("train_epoch", core::Json(opts.train_variant.drift_epoch));
  d.set("test_epoch", core::Json(opts.test_variant.drift_epoch));
  d.set("train_family", core::Json(opts.train_variant.family));
  d.set("test_family", core::Json(opts.test_variant.family));
  return d;
}

/// Shallow cells must fold the variant pair into their journal key
/// themselves — generic_cell_key knows nothing about ScenarioOptions.
std::string shallow_variant_key(dataset::TaskId task, core::ShallowKind kind,
                                bool include_ip, const core::ScenarioOptions& opts) {
  return core::generic_cell_key(
      {"shallow", core::to_string(kind), dataset::to_string(task),
       dataset::to_string(opts.split), include_ip ? "ip" : "noip",
       std::to_string(opts.seed), opts.train_variant.tag(),
       opts.test_variant.tag()});
}

core::CellOutcome run_model_cell(core::RunSupervisor& sup, core::BenchmarkEnv& env,
                                 dataset::TaskId task, const ModelSpec& model,
                                 std::string table, std::string col,
                                 const core::ScenarioOptions& opts) {
  core::CellSpec spec{std::move(table), model.name, std::move(col), {}};
  if (model.shallow) {
    spec.key = shallow_variant_key(task, core::ShallowKind::RandomForest,
                                   model.include_ip, opts);
    return sup.run_cell(spec, [&](core::CellContext& ctx) {
      core::ScenarioOptions o = opts;
      ctx.apply(o);
      auto s = core::summarize(core::run_shallow_scenario(
          env, task, core::ShallowKind::RandomForest, model.include_ip, o));
      s.extra.set("drift", drift_extra(opts));
      return s;
    });
  }
  spec.key = core::scenario_cell_key(
      task, "drift:" + replearn::to_string(replearn::ModelKind::NetMamba), opts);
  return sup.run_cell(spec, [&](core::CellContext& ctx) {
    core::ScenarioOptions o = opts;
    ctx.apply(o);
    auto s = core::summarize(core::run_packet_scenario(
        env, task, replearn::ModelKind::NetMamba, o));
    s.extra.set("drift", drift_extra(opts));
    return s;
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  std::vector<std::string> extra;
  auto cfg = core::parse_bench_cli("drift_transfer", argc, argv, error, &extra);
  DriftCliOptions cli;
  if (cfg && !parse_drift_flags(extra, cli, error)) cfg.reset();
  if (!cfg) {
    std::fprintf(stderr, "bench_drift_transfer: %s\n%s", error.c_str(),
                 core::bench_usage("drift_transfer").c_str());
    std::fprintf(stderr, "  --drift-epochs <n>   evaluate test epochs 1..n (default 3)\n");
    return 2;
  }
  core::RunSupervisor sup(std::move(*cfg));
  core::BenchmarkEnv env;
  const auto task = dataset::TaskId::VpnApp;

  // --- Drift ladder: train on epoch 0, test on epochs 0..N. -------------
  std::vector<core::CellOutcome> outcomes;
  std::vector<std::string> epoch_cols;
  for (int e = 0; e <= cli.drift_epochs; ++e) {
    epoch_cols.push_back("epoch" + std::to_string(e));
    core::ScenarioOptions opts;
    opts.split = dataset::SplitPolicy::PerFlow;
    opts.test_variant.drift_epoch = e;
    for (const auto& model : kModels)
      outcomes.push_back(
          run_model_cell(sup, env, task, model, "drift", epoch_cols.back(), opts));
  }

  // --- Cross-family transfer: A->A control, A->B transfer, B->B control.
  const std::vector<std::pair<int, int>> family_pairs = {{0, 0}, {0, 1}, {1, 1}};
  std::vector<std::string> transfer_cols;
  for (auto [train_fam, test_fam] : family_pairs) {
    transfer_cols.push_back(std::string(1, static_cast<char>('A' + train_fam)) +
                            "->" + std::string(1, static_cast<char>('A' + test_fam)));
    core::ScenarioOptions opts;
    opts.split = dataset::SplitPolicy::PerFlow;
    opts.train_variant.family = train_fam;
    opts.test_variant.family = test_fam;
    for (const auto& model : kModels)
      outcomes.push_back(run_model_cell(sup, env, task, model, "transfer",
                                        transfer_cols.back(), opts));
  }

  const std::size_t n_models = kModels.size();
  const std::size_t n_epochs = epoch_cols.size();
  auto drift_outcome = [&](std::size_t epoch, std::size_t model) -> const core::CellOutcome& {
    return outcomes[epoch * n_models + model];
  };
  auto transfer_outcome = [&](std::size_t pair, std::size_t model) -> const core::CellOutcome& {
    return outcomes[n_epochs * n_models + pair * n_models + model];
  };

  // --- Curve cell: the per-model epoch->accuracy series, journaled under
  // a key derived from every constituent cell so a config change
  // invalidates it alongside the cells it summarizes.
  std::string curve_salt = "curve;epochs=" + std::to_string(cli.drift_epochs);
  auto curve = sup.run_cell(
      {"drift", "curve", "all",
       core::generic_cell_key({"drift_curve", dataset::to_string(task),
                               std::to_string(cli.drift_epochs), curve_salt})},
      [&](core::CellContext&) {
        core::CellSummary s;
        core::Json curves = core::Json::object();
        for (std::size_t m = 0; m < n_models; ++m) {
          core::Json series = core::Json::array();
          for (std::size_t e = 0; e < n_epochs; ++e) {
            const auto& o = drift_outcome(e, m);
            if (!o.ok()) continue;
            core::Json point = core::Json::object();
            point.set("epoch", core::Json(static_cast<int>(e)));
            point.set("accuracy", core::Json(o.summary.accuracy));
            series.push(std::move(point));
          }
          curves.set(kModels[m].name, std::move(series));
        }
        s.extra.set("drift_curve", std::move(curves));
        return s;
      });

  // --- Render. ----------------------------------------------------------
  {
    std::vector<std::string> header = {"Model"};
    header.insert(header.end(), epoch_cols.begin(), epoch_cols.end());
    core::MarkdownTable table{header};
    for (std::size_t m = 0; m < n_models; ++m) {
      std::vector<std::string> row = {kModels[m].name};
      for (std::size_t e = 0; e < n_epochs; ++e)
        row.push_back(bench::cell_pct_ac(drift_outcome(e, m)));
      table.add_row(row);
    }
    core::print_table(
        "Drift — accuracy (%) when the held-out traffic drifts N epochs from "
        "the training distribution (VPN-app, per-flow split)",
        table);
  }
  {
    std::vector<std::string> header = {"Model"};
    header.insert(header.end(), transfer_cols.begin(), transfer_cols.end());
    core::MarkdownTable table{header};
    for (std::size_t m = 0; m < n_models; ++m) {
      std::vector<std::string> row = {kModels[m].name};
      for (std::size_t p = 0; p < family_pairs.size(); ++p)
        row.push_back(bench::cell_pct_ac(transfer_outcome(p, m)));
      table.add_row(row);
    }
    core::print_table(
        "Transfer — accuracy (%) across synthetic dataset families (A: "
        "canonical stacks, B: re-parameterized subnets/TTL/window/MTU)",
        table);
  }
  if (!curve.ok())
    std::fprintf(stderr, "bench_drift_transfer: curve cell failed: %s\n",
                 curve.message.c_str());

  bench::print_ingest(env, {task});
  return sup.finalize() ? 0 : 1;
}
