// Extension ablation (paper §4.1: "more advanced splits are possible:
// per-session, per-client, per-location, per-time split — each stresses the
// ability of the model to generalise"). The Random Forest baseline is
// evaluated on VPN-app under all five policies. Expected shape: per-packet
// inflates; per-flow is the honest reference; per-client / per-time /
// per-session are progressively harsher generalization tests.
#include <numeric>

#include "bench_common.h"
#include "dataset/advanced_split.h"
#include "ml/forest.h"
#include "replearn/featurize.h"

using namespace sugar;

namespace {

core::CellSummary rf_under_split(const dataset::PacketDataset& ds,
                                 const dataset::SplitIndices& split,
                                 std::uint64_t seed, const ml::CancelToken* cancel) {
  auto train_idx = dataset::balance_train(ds, split.train, seed);
  if (train_idx.empty() || split.test.empty())
    throw core::RunError(core::RunErrorKind::kEmptyPartition,
                         "split left train=" + std::to_string(train_idx.size()) +
                             " / test=" + std::to_string(split.test.size()) +
                             " samples");
  auto dtr = ds.subset(train_idx);
  auto dte = ds.subset(split.test);
  std::vector<std::size_t> itr(dtr.size()), ite(dte.size());
  std::iota(itr.begin(), itr.end(), 0);
  std::iota(ite.begin(), ite.end(), 0);
  auto x_train = replearn::header_feature_matrix(dtr, itr, {});
  auto x_test = replearn::header_feature_matrix(dte, ite, {});
  ml::ForestConfig cfg;
  cfg.cancel = cancel;
  ml::RandomForest rf(cfg);
  rf.fit(x_train, dtr.label, ds.num_classes);
  auto s = core::summarize(ml::evaluate(dte.label, rf.predict(x_test), ds.num_classes));
  s.n_train = dtr.size();
  s.n_test = dte.size();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  auto sup = bench::make_supervisor("ablation_splits", argc, argv);
  core::BenchmarkEnv env;
  const auto& ds = env.task_dataset(dataset::TaskId::VpnApp);

  core::MarkdownTable table{{"Split policy", "AC", "F1", "audit"}};

  auto add_policy_row = [&](const std::string& name, auto make_split) {
    core::CellSpec spec{"ablation_splits", name, "rf",
                        core::generic_cell_key({"ablation_splits", name, "seed=3"})};
    auto outcome = sup.run_cell(spec, [&](core::CellContext& ctx) {
      auto split = make_split();
      auto audit = dataset::audit_split(ds, split);
      auto s = rf_under_split(ds, split, 3, ctx.cancel);
      s.extra.set("audit_clean", core::Json(audit.clean()));
      return s;
    });
    std::string audit_text = "?";
    if (outcome.ok()) {
      const core::Json* clean = outcome.summary.extra.find("audit_clean");
      audit_text = clean && clean->bool_or(false) ? "clean" : "LEAKY";
    }
    table.add_row({name, bench::cell_pct_ac(outcome), bench::cell_pct_f1(outcome),
                   core::RunSupervisor::format_cell(outcome, audit_text)});
  };

  for (auto policy : {dataset::SplitPolicy::PerPacket, dataset::SplitPolicy::PerFlow})
    add_policy_row(dataset::to_string(policy), [&, policy] {
      dataset::SplitOptions opts;
      opts.policy = policy;
      return dataset::split_dataset(ds, opts);
    });

  for (auto policy :
       {dataset::AdvancedSplitPolicy::PerClient, dataset::AdvancedSplitPolicy::PerTime,
        dataset::AdvancedSplitPolicy::PerSession})
    add_policy_row(dataset::to_string(policy), [&, policy] {
      dataset::AdvancedSplitOptions opts;
      opts.policy = policy;
      return dataset::advanced_split(ds, opts);
    });

  core::print_table(
      "Ablation — RF baseline (VPN-app) under five split policies (extension of "
      "paper §4.1)",
      table);
  return sup.finalize() ? 0 : 1;
}
