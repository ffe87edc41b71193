// Table 8: shallow ML baselines on hand-crafted header features (Table 12),
// per-flow split, with and without IP addresses. Expected shape: tree
// ensembles beat Pcap-Encoder (and every deep model); removing IPs hurts
// everywhere, drastically on TLS-120.
//
// `--scale <packets>` switches to the out-of-core mode instead: the same
// shallow-baseline claim run end-to-end through SUGC stores
// (core::run_ooc_scale) at a dataset size chosen by the caller —
// typically 10-100x the SUGAR_PAGE_CACHE_MB budget — with rows/s, cache
// hit rate and peak RSS recorded in the cell's extra payload and the
// scale pinned into the journal key.
#include <filesystem>

#include "bench_common.h"
#include "core/envparse.h"
#include "core/ooc.h"

using namespace sugar;

namespace {

/// Runs the out-of-core scale scenario as a single supervised cell.
int run_scale_mode(core::RunSupervisor& sup, std::uint64_t scale) {
  core::OocOptions opts;
  opts.target_packets = scale;
  const std::string dir = sup.config().json_path.empty()
                              ? "BENCH_table8.json.ooc-store"
                              : sup.config().json_path + ".ooc-store";
  std::filesystem::create_directories(dir);
  opts.dir = dir;

  core::CellSpec spec{
      "table8", "RF out-of-core", std::to_string(scale) + " packets",
      core::generic_cell_key({"ooc_scale", std::to_string(scale),
                              std::to_string(core::kOocSeed),
                              std::to_string(core::kOocGroupRows),
                              std::to_string(core::kOocForestTrees)})};
  auto outcome = sup.run_cell(spec, [&](core::CellContext&) {
    const core::OocResult res = core::run_ooc_scale(opts);
    core::CellSummary s;
    const auto num = [&](const char* key) {
      const core::Json* v = res.json.find(key);
      return v ? v->number_or(0.0) : 0.0;
    };
    s.accuracy = num("accuracy");
    s.macro_f1 = num("macro_f1");
    s.micro_f1 = num("accuracy");
    s.n_train = static_cast<std::size_t>(num("train_rows"));
    s.n_test = static_cast<std::size_t>(num("test_rows"));
    s.extra = core::Json::object().set("ooc", res.json);
    return s;
  });
  std::error_code ec;
  std::filesystem::remove(dir, ec);  // ooc removes its stores; dir is empty

  core::MarkdownTable table{{"Scale (packets)", "Macro F1", "rows/s",
                             "cache hit", "peak RSS MB"}};
  if (outcome.ok()) {
    const core::Json* ooc = outcome.summary.extra.find("ooc");
    const auto num = [&](const char* key) {
      const core::Json* v = ooc ? ooc->find(key) : nullptr;
      return v ? v->number_or(0.0) : 0.0;
    };
    char f1[32], rps[32], hit[32], rss[32];
    std::snprintf(f1, sizeof f1, "%.4f", outcome.summary.macro_f1);
    std::snprintf(rps, sizeof rps, "%.0f", num("rows_per_sec"));
    std::snprintf(hit, sizeof hit, "%.3f", num("page_cache_hit_rate"));
    std::snprintf(rss, sizeof rss, "%.1f", num("peak_rss_bytes") / 1048576.0);
    table.add_row({std::to_string(scale), f1, rps, hit, rss});
  } else {
    table.add_row({std::to_string(scale), "FAILED", "-", "-", "-"});
  }
  core::print_table("Table 8c — Out-of-core scale run (streamed SUGC pipeline)",
                    table);
  return sup.finalize() && outcome.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  std::vector<std::string> extra;
  auto sup_cfg = core::parse_bench_cli("table8", argc, argv, error, &extra);
  std::uint64_t scale = 0;
  if (sup_cfg) {
    for (std::size_t i = 0; i < extra.size() && sup_cfg; ++i) {
      if (extra[i] == "--scale" && i + 1 < extra.size()) {
        if (!core::parse_number(extra[++i], scale) || scale < 1) {
          error = "malformed value for --scale '" + extra[i] + "'";
          sup_cfg.reset();
        }
      } else {
        error = "unknown flag '" + extra[i] + "'";
        sup_cfg.reset();
      }
    }
  }
  if (!sup_cfg) {
    std::fprintf(stderr, "bench_table8: %s\n%s", error.c_str(),
                 core::bench_usage("table8").c_str());
    std::fprintf(stderr,
                 "  --scale <packets>        out-of-core mode: stream the "
                 "pipeline over this many generated packets\n");
    return 2;
  }
  core::RunSupervisor sup(std::move(*sup_cfg));
  if (scale > 0) return run_scale_mode(sup, scale);
  core::BenchmarkEnv env;

  core::MarkdownTable table{{"Model", "VPN-app base", "VPN-app w/o IP",
                             "TLS-120 base", "TLS-120 w/o IP"}};

  const core::ShallowKind kinds[] = {
      core::ShallowKind::RandomForest, core::ShallowKind::XgboostStyle,
      core::ShallowKind::LightGbmStyle, core::ShallowKind::Mlp};

  for (auto kind : kinds) {
    std::vector<std::string> row{core::to_string(kind)};
    for (auto task : bench::kHardTasks) {
      for (bool include_ip : {true, false}) {
        core::ScenarioOptions opts;
        opts.split = dataset::SplitPolicy::PerFlow;
        auto outcome = bench::run_shallow_cell(
            sup, env, "table8", core::to_string(kind),
            dataset::to_string(task) + (include_ip ? " base" : " w/o IP"), task,
            kind, include_ip, opts);
        row.push_back(bench::cell_pct_f1(outcome));
      }
    }
    table.add_row(std::move(row));
  }

  core::print_table(
      "Table 8 — Shallow baselines on header features (per-flow split, macro F1)",
      table);

  // Forest-size ladder: the quantize-once histogram substrate is what makes
  // bigger forests affordable inside the same per-cell wall budget
  // (--cell-timeout-s). 1x/4x/10x the default tree count on VPN-app base
  // features, each cell under the supervisor watchdog with the tree count
  // in its journal key.
  core::MarkdownTable ladder{{"Forest", "VPN-app base F1", "train s"}};
  for (int mult : {1, 4, 10}) {
    const int trees = 40 * mult;
    core::ScenarioOptions opts;
    opts.split = dataset::SplitPolicy::PerFlow;
    opts.forest_trees = trees;
    core::CellSpec spec{
        "table8", "RF x" + std::to_string(mult),
        "VPN-app base (" + std::to_string(trees) + " trees)",
        core::generic_cell_key(
            {"shallow_ladder", "RF", dataset::to_string(dataset::TaskId::VpnApp),
             dataset::to_string(opts.split), "ip", std::to_string(opts.seed),
             std::to_string(trees)})};
    auto outcome = sup.run_cell(spec, [&](core::CellContext& ctx) {
      core::ScenarioOptions o = opts;
      ctx.apply(o);
      return core::summarize(core::run_shallow_scenario(
          env, dataset::TaskId::VpnApp, core::ShallowKind::RandomForest, true,
          o));
    });
    char secs[32];
    std::snprintf(secs, sizeof secs, "%.2f", outcome.summary.train_seconds);
    ladder.add_row({"RF x" + std::to_string(mult) + " (" +
                        std::to_string(trees) + " trees)",
                    bench::cell_pct_f1(outcome), secs});
  }
  core::print_table("Table 8b — Forest-size ladder (binned histogram training)",
                    ladder);
  return sup.finalize() ? 0 : 1;
}
