// Figure 6: training and inference time of every model relative to the
// Random Forest (VPN-app, per-flow split). Expected shape: RF fastest by
// far; each deep model costs 2-500x at training; unfrozen costs 2-8x over
// frozen; netFound (largest) slowest at inference, NetMamba cheapest among
// the deep models; Pcap-Encoder near the top of the cost range.
//
// This bench also carries the substrate's sequential-vs-parallel probe: a
// fixed forest fit timed at 1 thread and at the configured pool width, with
// bit-identical-prediction verification and the speedup recorded in the
// artifact. The per-model cells run one at a time, so each cell's timing
// has the whole machine to itself.
#include <random>

#include "bench_common.h"
#include "core/threadpool.h"
#include "ml/forest.h"

using namespace sugar;

namespace {

/// Substrate probe cell: same forest fit at 1 thread vs the configured
/// pool. Runs before the model cells because it resizes the global pool,
/// which must only happen at a quiescent point.
core::CellSummary substrate_probe() {
  ml::Matrix x(360, 18);
  std::mt19937_64 rng(97);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : x.data()) v = dist(rng);
  std::vector<int> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 5);

  auto fit_once = [&] {
    ml::ForestConfig fc;
    fc.num_trees = 24;
    ml::RandomForest rf(fc);
    rf.fit(x, y, 5);
    return rf.predict(x);
  };
  auto timed = [&](std::vector<int>& pred) {
    auto t0 = std::chrono::steady_clock::now();
    pred = fit_once();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };

  const std::size_t par_threads = core::threads_from_env();
  core::set_global_threads(1);
  std::vector<int> pred_seq;
  double t_seq = timed(pred_seq);
  core::set_global_threads(par_threads);
  std::vector<int> pred_par;
  double t_par = timed(pred_par);

  ml::check_internal(pred_seq == pred_par,
                     "substrate probe: parallel forest differs from sequential");
  core::CellSummary s;
  s.train_seconds = t_par;
  s.extra.set("threads", core::Json(par_threads));
  s.extra.set("seq_seconds", core::Json(t_seq));
  s.extra.set("par_seconds", core::Json(t_par));
  s.extra.set("speedup", core::Json(t_par > 0 ? t_seq / t_par : 0.0));
  s.extra.set("bit_identical", core::Json(true));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  auto sup = bench::make_supervisor("fig6", argc, argv);
  core::BenchmarkEnv env;
  const auto task = dataset::TaskId::VpnApp;

  auto probe = sup.run_cell({"fig6", "substrate", "seq_vs_par", ""},
                            [](core::CellContext&) { return substrate_probe(); });

  // Baseline: Random Forest (also warms the task dataset before the batch).
  core::ScenarioOptions opts;
  opts.split = dataset::SplitPolicy::PerFlow;
  auto rf = bench::run_shallow_cell(sup, env, "fig6", "RF", "baseline", task,
                                    core::ShallowKind::RandomForest, true, opts);
  const double rf_train = rf.ok() && rf.summary.train_seconds > 0
                              ? rf.summary.train_seconds
                              : 1.0;
  const double rf_test =
      rf.ok() && rf.summary.test_seconds > 0 ? rf.summary.test_seconds : 1.0;

  // The (model × frozen/unfrozen) cells, one at a time.
  const auto kinds = replearn::all_model_kinds();
  std::vector<core::CellOutcome> outcomes;
  for (auto kind : kinds) {
    for (bool frozen : {true, false}) {
      core::ScenarioOptions dopts;
      dopts.split = dataset::SplitPolicy::PerFlow;
      dopts.frozen = frozen;
      outcomes.push_back(sup.run_cell(
          {"fig6", replearn::to_string(kind), frozen ? "frozen" : "unfrozen",
           core::scenario_cell_key(task, "timing:" + replearn::to_string(kind),
                                   dopts)},
          [&env, task, kind, dopts](core::CellContext& ctx) {
            core::ScenarioOptions o = dopts;
            ctx.apply(o);
            auto s = core::summarize(core::run_packet_scenario(env, task, kind, o));
            // The bundle is pre-trained (and cached) by now; record its size.
            s.extra.set("params",
                        core::Json(env.pretrained(kind, replearn::TaskMode::Packet,
                                                  ctx.cancel)
                                       .encoder->param_count()));
            return s;
          }));
    }
  }

  core::MarkdownTable table{{"Model", "Train x (frozen)", "Train x (unfrozen)",
                             "Inference x", "Params"}};
  table.add_row({"RF (baseline)", rf.ok() ? "1.0" : bench::cell_ac_f1(rf), "-",
                 rf.ok() ? "1.0" : bench::cell_ac_f1(rf), "-"});

  for (std::size_t ki = 0; ki < kinds.size(); ++ki) {
    const auto& frozen_outcome = outcomes[2 * ki];
    const auto& unfrozen_outcome = outcomes[2 * ki + 1];
    auto ratio = [&](const core::CellOutcome& o, double seconds, double base) {
      return core::RunSupervisor::format_cell(
          o, core::MarkdownTable::num(seconds / base, 1));
    };
    std::string params = "-";
    for (const auto* o : {&frozen_outcome, &unfrozen_outcome})
      if (o->ok())
        if (const core::Json* p = o->summary.extra.find("params"))
          params = std::to_string(static_cast<std::size_t>(p->number_or(0)));
    table.add_row(
        {replearn::to_string(kinds[ki]),
         ratio(frozen_outcome, frozen_outcome.summary.train_seconds, rf_train),
         ratio(unfrozen_outcome, unfrozen_outcome.summary.train_seconds, rf_train),
         ratio(unfrozen_outcome, unfrozen_outcome.summary.test_seconds, rf_test),
         params});
  }

  core::print_table(
      "Figure 6 — Training/inference time relative to the RF baseline (VPN-app, "
      "per-flow split)",
      table);
  if (probe.ok()) {
    const core::Json* sp = probe.summary.extra.find("speedup");
    const core::Json* th = probe.summary.extra.find("threads");
    std::printf("Substrate: forest fit at %zu thread(s) vs 1: %.2fx, bit-identical\n",
                th ? static_cast<std::size_t>(th->number_or(1)) : 1,
                sp ? sp->number_or(0) : 0.0);
  }
  return sup.finalize() ? 0 : 1;
}
