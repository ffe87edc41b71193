// Table 11: Pcap-Encoder pre-training ablation (per-flow split, frozen).
// Variants: full AE+Q&A pre-training, Q&A only, and the bare un-pretrained
// backbone ("T5-base" in the paper). Expected shape: Q&A is the crucial
// phase; the AE phase adds a smaller increment; no pre-training collapses.
#include "bench_common.h"

using namespace sugar;

namespace {

replearn::ModelBundle make_variant(core::BenchmarkEnv& env, bool ae, bool qa,
                                   const ml::CancelToken* cancel) {
  replearn::ModelBundle b = replearn::make_model(replearn::ModelKind::PcapEncoder,
                                                 replearn::TaskMode::Packet);
  replearn::EncoderConfig cfg = b.encoder->config();
  cfg.autoencoder_phase = ae;
  cfg.qa_phase = qa;
  b.encoder = std::make_unique<replearn::Encoder>(cfg);
  replearn::BackbonePretrainOptions opts;
  opts.pretrain.epochs = env.config().pretrain_epochs;
  opts.pretrain.cancel = cancel;
  opts.max_samples = env.config().pretrain_max_samples;
  opts.seed = env.config().seed ^ 0x11E;
  pretrain_on_backbone(b, env.backbone(), opts);
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  auto sup = bench::make_supervisor("table11", argc, argv);
  core::BenchmarkEnv env;

  core::MarkdownTable table{
      {"Variant", "VPN-app AC", "VPN-app F1", "TLS-120 AC", "TLS-120 F1"}};

  struct Variant {
    const char* name;
    bool ae, qa;
  };
  const Variant variants[] = {
      {"Autoencoder + Q&A", true, true},
      {"Q&A only", false, true},
      {"No pre-training (base)", false, false},
  };

  for (const auto& v : variants) {
    std::vector<std::string> row{v.name};
    for (auto task : bench::kHardTasks) {
      core::CellSpec spec{
          "table11", v.name, dataset::to_string(task),
          core::generic_cell_key({"table11", v.name, dataset::to_string(task)})};
      auto outcome = sup.run_cell(spec, [&](core::CellContext& ctx) {
        auto bundle = make_variant(env, v.ae, v.qa, ctx.cancel);
        core::ScenarioOptions opts;
        opts.split = dataset::SplitPolicy::PerFlow;
        opts.frozen = true;
        ctx.apply(opts);
        return core::summarize(
            core::run_packet_scenario_with_bundle(env, task, std::move(bundle), opts));
      });
      row.push_back(bench::cell_pct_ac(outcome));
      row.push_back(bench::cell_pct_f1(outcome));
    }
    table.add_row(std::move(row));
  }

  core::print_table(
      "Table 11 — Pcap-Encoder pre-training ablation (per-flow split, frozen)",
      table);
  return sup.finalize() ? 0 : 1;
}
