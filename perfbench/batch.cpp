// Batch workloads: the reproduction path (generate -> clean -> split ->
// featurize -> fit -> evaluate).
//
//   table8    Table 8 base cells: {VPN-app, TLS-120} x {RF, XGBoost-style,
//             LightGBM-style, MLP} on header features, per-flow split.
//   encoders  Fig 6 grid: the six encoders pretrained on the backbone, then
//             downstream frozen and unfrozen on VPN-app, per-flow split.
//
// Set-up is warming a core::BenchmarkEnv (trace generation, cleaning, task
// build, backbone), repeated and timed on its own. A measured pass produces
// every cell through core::run_shallow_scenario / run_packet_scenario, so
// the end-to-end numbers time the program's own path. The traced run
// alternates those passes with a layered pass that makes the same calls
// one layer at a time under the probes, and must reproduce every cell.
// Pretraining belongs to the pass: an encoders pass starts from an env whose
// pretrained-encoder cache is empty.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/env.h"
#include "core/pipeline.h"
#include "dataset/audit.h"
#include "dataset/clean.h"
#include "dataset/split.h"
#include "dataset/transforms.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/preprocess.h"
#include "perfbench.h"
#include "replearn/featurize.h"
#include "replearn/head.h"
#include "replearn/model_zoo.h"
#include "replearn/pretrain.h"
#include "trafficgen/datasets.h"

namespace perfbench {
namespace {

using sugar::core::BenchmarkEnv;
using sugar::core::EnvConfig;
using sugar::core::ShallowKind;
using sugar::dataset::PacketDataset;
using sugar::dataset::TaskId;
using sugar::replearn::ModelKind;

/// One cell of a batch workload.
struct Cell {
  TaskId task = TaskId::VpnApp;
  ShallowKind shallow = ShallowKind::RandomForest;  // table8
  ModelKind model = ModelKind::EtBert;              // encoders
  bool frozen = true;                               // encoders
};

struct CellOutcome {
  double macro_f1 = 0;
  std::uint64_t digest = 0;     // FNV-1a of the confusion matrix
  std::size_t rows_scored = 0;  // test rows predicted
  double seconds = 0;           // wall time to produce the cell, in pass order
};

struct Workload {
  bool encoders = false;
  EnvConfig env;
  int setup_reps = 3;
  std::vector<TaskId> tasks;
  std::vector<Cell> cells;
};

Workload make_workload(const Options& o) {
  Workload w;
  w.encoders = o.workload == "encoders";
  EnvConfig& e = w.env;
  e.seed = o.seed;
  if (w.encoders) {
    // Pretraining on a fixed sample budget; VPN-app at SUGAR_SCALE=1 flow
    // counts, with downstream caps small enough that every seed fills them.
    e.pretrain_max_samples = o.tiny ? 200 : 1000;
    e.pretrain_epochs = o.tiny ? 1 : 6;
    e.downstream_epochs = o.tiny ? 1 : 8;
    e.flows_per_class_iscx = o.tiny ? 4 : 30;
    e.backbone_flows = o.tiny ? 24 : 320;
    e.max_train_packets_deep = o.tiny ? 300 : 1500;
    e.max_test_packets_deep = o.tiny ? 300 : 4000;
    w.tasks = {TaskId::VpnApp};
    for (ModelKind m : sugar::replearn::all_model_kinds())
      for (bool frozen : {true, false})
        w.cells.push_back({.task = TaskId::VpnApp, .model = m, .frozen = frozen});
  } else {
    // SUGAR_SCALE=0.5 flow counts; train/test caps every seed fills, so the
    // fitted row counts (and the GBDT cost) do not move with the seed.
    e.flows_per_class_iscx = o.tiny ? 4 : 30;
    e.flows_per_class_tls = o.tiny ? 2 : 14;
    e.max_train_packets = o.tiny ? 600 : 1500;
    e.max_test_packets = o.tiny ? 300 : 3000;
    if (o.tiny) e.downstream_epochs = 2;
    w.tasks = {TaskId::VpnApp, TaskId::Tls120};
    for (TaskId t : w.tasks)
      for (ShallowKind k : {ShallowKind::RandomForest, ShallowKind::XgboostStyle,
                            ShallowKind::LightGbmStyle, ShallowKind::Mlp})
        w.cells.push_back({.task = t, .shallow = k});
  }
  if (o.tiny) w.setup_reps = 1;
  return w;
}

std::uint64_t digest_of(const sugar::ml::ConfusionMatrix& cm) {
  std::uint64_t h = 1469598103934665603ull;
  const int k = cm.num_classes();
  for (int t = 0; t < k; ++t)
    for (int p = 0; p < k; ++p) {
      h ^= cm.at(t, p);
      h *= 1099511628211ull;
    }
  return h;
}

CellOutcome outcome_of(const sugar::ml::Metrics& m, Clock::time_point t0) {
  return {.macro_f1 = m.macro_f1,
          .digest = digest_of(m.confusion),
          .rows_scored = m.confusion.total(),
          .seconds = seconds_since(t0)};
}

std::string cell_name(const Workload& w, const Cell& c) {
  if (w.encoders)
    return sugar::replearn::to_string(c.model) + (c.frozen ? " frozen" : " unfrozen");
  return sugar::dataset::to_string(c.task) + " " + sugar::core::to_string(c.shallow);
}

sugar::core::ScenarioOptions scenario_options(const Cell& c) {
  sugar::core::ScenarioOptions opts;
  opts.split = sugar::dataset::SplitPolicy::PerFlow;
  opts.frozen = c.frozen;
  return opts;
}

// ---------------------------------------------------------------------------
// Set-up and the measured pass (core's scenario runners)

std::unique_ptr<BenchmarkEnv> warm_env(const Workload& w) {
  auto env = std::make_unique<BenchmarkEnv>(w.env);
  for (TaskId t : w.tasks) (void)env->task_dataset(t);
  if (w.encoders) (void)env->backbone();
  return env;
}

std::vector<CellOutcome> core_pass(const Workload& w, BenchmarkEnv& env) {
  std::vector<CellOutcome> out;
  for (const Cell& c : w.cells) {
    const auto t0 = Clock::now();
    const auto opts = scenario_options(c);
    out.push_back(outcome_of(
        w.encoders ? sugar::core::run_packet_scenario(env, c.task, c.model, opts).metrics
                   : sugar::core::run_shallow_scenario(env, c.task, c.shallow, true, opts)
                         .metrics,
        t0));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The layered pass: core's scenario steps, one probed call per layer.

/// Set-up through the layers (trafficgen, dataset) as BenchmarkEnv does it,
/// probed; the traced run makes it once for the set-up layer metrics.
void layered_setup(const Workload& w, Probes& probes) {
  for (TaskId task : w.tasks) {
    sugar::trafficgen::GenOptions g;
    g.seed = w.env.seed;
    const bool tls = sugar::dataset::source_of(task) == sugar::dataset::SourceDataset::CstnTls;
    g.flows_per_class = tls ? w.env.flows_per_class_tls : w.env.flows_per_class_iscx;
    g.spurious_fraction = tls ? 0.0 : w.env.iscx_spurious;
    g.strip_tls_handshake = tls;
    auto trace = probes.time("trafficgen.generate_s", [&] {
      return tls ? sugar::trafficgen::generate_cstn_tls120(g)
                 : sugar::trafficgen::generate_iscx_vpn(g);
    });
    probes.time("dataset.clean_s", [&] {
      return sugar::dataset::clean_trace(trace, sugar::dataset::CleaningOptions{});
    });
    (void)sugar::dataset::make_task_dataset(trace, task);
  }
  if (w.encoders)
    (void)probes.time("trafficgen.generate_s", [&] {
      return sugar::trafficgen::generate_backbone(w.env.seed ^ 0xBACB, w.env.backbone_flows);
    });
}

std::vector<std::size_t> iota_indices(std::size_t n) {
  std::vector<std::size_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

struct Partitions {
  PacketDataset train;
  PacketDataset test;
};

/// core's partition step for a single-variant dataset: split, cap flow
/// length, balance and cap train, cap test, audit, subset, ablate.
Partitions partition(const PacketDataset& ds, std::size_t max_train, std::size_t max_test,
                     const sugar::core::ScenarioOptions& opts) {
  namespace dset = sugar::dataset;
  dset::SplitOptions sopts;
  sopts.policy = opts.split;
  sopts.seed = opts.seed;
  const auto split = dset::split_dataset(ds, sopts);
  auto train_idx = dset::cap_flow_length(ds, split.train, 1000, opts.seed ^ 1);
  train_idx = dset::balance_train(ds, train_idx, opts.seed ^ 2);
  if (train_idx.size() > max_train)
    train_idx = dset::stratified_sample(
        ds, train_idx,
        static_cast<double>(max_train) / static_cast<double>(train_idx.size()),
        opts.seed ^ 3);
  auto test_idx = split.test;
  if (test_idx.size() > max_test)
    test_idx = dset::stratified_sample(
        ds, test_idx, static_cast<double>(max_test) / static_cast<double>(test_idx.size()),
        opts.seed ^ 4);
  if (train_idx.empty() || test_idx.empty())
    throw std::runtime_error("perfbench: split left an empty partition");
  (void)dset::audit_split(ds, {.train = train_idx, .test = test_idx});
  Partitions parts{ds.subset(train_idx), ds.subset(test_idx)};
  dset::apply_ablation(parts.train, opts.train_ablation, opts.seed ^ 5);
  dset::apply_ablation(parts.test, opts.test_ablation, opts.seed ^ 6);
  dset::apply_perturbation(parts.test, opts.perturb, opts.seed ^ 0xAD7);
  return parts;
}

struct ModelProbeNames {
  const char* fit;
  const char* predict;
};

ModelProbeNames probe_names(ShallowKind k) {
  switch (k) {
    case ShallowKind::RandomForest: return {"ml.rf.fit_s", "ml.rf.predict_s"};
    case ShallowKind::XgboostStyle:
    case ShallowKind::LightGbmStyle: return {"ml.gbdt.fit_s", "ml.gbdt.predict_s"};
    case ShallowKind::Mlp: break;
  }
  return {"ml.mlp.fit_s", "ml.mlp.predict_s"};
}

/// Fits and predicts one shallow model as core::run_shallow_scenario does.
std::vector<int> fit_predict_shallow(ShallowKind kind, sugar::ml::Matrix& x_train,
                                     const std::vector<int>& y_train,
                                     sugar::ml::Matrix& x_test, int num_classes,
                                     const EnvConfig& env,
                                     const sugar::core::ScenarioOptions& opts,
                                     Probes& probes) {
  namespace ml = sugar::ml;
  const ModelProbeNames names = probe_names(kind);
  switch (kind) {
    case ShallowKind::RandomForest: {
      ml::RandomForest rf{ml::ForestConfig{}};
      probes.time(names.fit, [&] { rf.fit(x_train, y_train, num_classes); });
      return probes.time(names.predict, [&] { return rf.predict(x_test); });
    }
    case ShallowKind::XgboostStyle:
    case ShallowKind::LightGbmStyle: {
      ml::GradientBoosting gb(kind == ShallowKind::XgboostStyle
                                  ? ml::GbdtConfig::xgboost_style()
                                  : ml::GbdtConfig::lightgbm_style());
      probes.time(names.fit, [&] { gb.fit(x_train, y_train, num_classes); });
      return probes.time(names.predict, [&] { return gb.predict(x_test); });
    }
    case ShallowKind::Mlp: {
      ml::MlpConfig cfg;
      cfg.epochs = env.downstream_epochs * 2;
      cfg.seed = opts.seed ^ 0x5A;
      ml::MlpClassifier mlp(cfg);
      probes.time(names.fit, [&] {
        ml::StandardScaler scaler;
        scaler.fit(x_train);
        scaler.transform(x_train);
        scaler.transform(x_test);
        mlp.fit(x_train, y_train, num_classes);
      });
      return probes.time(names.predict, [&] { return mlp.predict(x_test); });
    }
  }
  return {};
}

/// core's downstream_config() for a default-knob scenario.
sugar::replearn::DownstreamConfig downstream_config(const EnvConfig& env,
                                                   const sugar::core::ScenarioOptions& opts) {
  sugar::replearn::DownstreamConfig cfg;
  cfg.frozen = opts.frozen;
  cfg.epochs = opts.frozen ? env.downstream_epochs * 3 : env.downstream_epochs * 3 / 2;
  cfg.flow_holdout_validation = opts.split == sugar::dataset::SplitPolicy::PerFlow;
  cfg.seed = opts.seed ^ 0xD0;
  return cfg;
}

struct RowCounts {
  std::uint64_t fit = 0;
  std::uint64_t predicted = 0;
};

std::vector<CellOutcome> layered_pass(const Workload& w, BenchmarkEnv& env, Probes& probes,
                                      RowCounts& rows) {
  namespace rl = sugar::replearn;
  std::vector<CellOutcome> out;
  rl::ModelBundle bundle;  // encoders: the current kind, pretrained once
  for (const Cell& c : w.cells) {
    const PacketDataset& ds = env.task_dataset(c.task);
    const auto opts = scenario_options(c);
    const auto t0 = Clock::now();
    if (w.encoders && (!bundle.encoder || bundle.kind != c.model)) {
      bundle = rl::make_model(c.model, rl::TaskMode::Packet);
      rl::BackbonePretrainOptions popts;  // as BenchmarkEnv::pretrained()
      popts.pretrain.epochs = w.env.pretrain_epochs;
      popts.max_samples = w.env.pretrain_max_samples;
      popts.seed = w.env.seed ^ 0x11E;
      probes.time("replearn.pretrain_s",
                  [&] { rl::pretrain_on_backbone(bundle, env.backbone(), popts); });
    }

    Partitions parts = probes.time("dataset.partition_s", [&] {
      return w.encoders ? partition(ds, w.env.max_train_packets_deep,
                                    w.env.max_test_packets_deep, opts)
                        : partition(ds, w.env.max_train_packets, w.env.max_test_packets,
                                    opts);
    });
    const auto train_idx = iota_indices(parts.train.size());
    const auto test_idx = iota_indices(parts.test.size());
    sugar::ml::Matrix x_train, x_test;
    std::vector<int> pred;
    if (w.encoders) {
      probes.time("replearn.byte_view_s", [&] {
        x_train = bundle.featurize_packets(parts.train, train_idx);
        x_test = bundle.featurize_packets(parts.test, test_idx);
      });
      rl::DownstreamModel dm(bundle.encoder->clone(), ds.num_classes,
                             downstream_config(w.env, opts));
      probes.time("replearn.fit_s",
                  [&] { dm.fit(x_train, parts.train.label, parts.train.flow_id); });
      pred = probes.time("replearn.predict_s", [&] { return dm.predict(x_test); });
    } else {
      const rl::HeaderFeatureSpec spec{.include_ip_addresses = true};
      probes.time("replearn.header_features_s", [&] {
        x_train = rl::header_feature_matrix(parts.train, train_idx, spec);
        x_test = rl::header_feature_matrix(parts.test, test_idx, spec);
      });
      pred = fit_predict_shallow(c.shallow, x_train, parts.train.label, x_test,
                                 ds.num_classes, w.env, opts, probes);
    }
    rows.fit += x_train.rows();
    rows.predicted += pred.size();
    CellOutcome o = outcome_of(sugar::ml::evaluate(parts.test.label, pred, ds.num_classes), t0);
    o.rows_scored = pred.size();  // counted here, not taken from core's output
    out.push_back(o);
  }
  return out;
}

void check_same(const Workload& w, const std::vector<CellOutcome>& ref,
                const std::vector<CellOutcome>& got, const std::string& what, Result& r) {
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const std::string name = cell_name(w, w.cells[i]) + ": " + what;
    r.check(got[i].digest == ref[i].digest, name + " prediction digest differs");
    r.check(got[i].macro_f1 == ref[i].macro_f1, name + " macro-F1 differs");
    r.check(got[i].rows_scored == ref[i].rows_scored, name + " scored rows differ");
  }
}

}  // namespace

Result run_batch(const Options& o) {
  const Workload w = make_workload(o);
  Result r;
  Probes probes;

  std::vector<double> setup_s;
  std::unique_ptr<BenchmarkEnv> env;
  const auto set_up = [&] {
    env.reset();
    const auto t0 = Clock::now();
    env = warm_env(w);
    setup_s.push_back(seconds_since(t0));
  };
  for (int rep = 0; rep < w.setup_reps; ++rep) set_up();

  // Measured passes; the traced run alternates them with layered passes.
  std::vector<CellOutcome> reference;  // the first measured pass
  std::vector<double> wall_core, wall_layered, cpu_core;
  RowCounts rows;
  bool env_used = false;  // an encoders env caches pretraining after a pass
  std::size_t pass = 0;
  const auto run_t0 = Clock::now();
  double rss = 0;
  do {
    const bool layered = o.trace && pass % 2 == 1;
    probes.enabled = layered;
    if (w.encoders && env_used && !layered) set_up();
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    std::vector<CellOutcome> cells =
        layered ? layered_pass(w, *env, probes, rows) : core_pass(w, *env);
    const double wall = seconds_since(t0);
    rss = peak_rss_mb();
    std::fprintf(stderr, "perfbench: %s pass %zu: %.3f s; cells (s):",
                 layered ? "layered" : "measured", pass, wall);
    for (const CellOutcome& c : cells) std::fprintf(stderr, " %.3f", c.seconds);
    std::fprintf(stderr, "\n");
    if (layered) {
      wall_layered.push_back(wall);
      check_same(w, reference, cells, "layered pass " + std::to_string(pass) +
                                          " vs core's scenario runner", r);
    } else {
      env_used = true;
      wall_core.push_back(wall);
      cpu_core.push_back(process_cpu_s() - cpu0);
      if (reference.empty())
        reference = cells;
      else
        check_same(w, reference, cells, "pass " + std::to_string(pass) + " vs pass 0", r);
    }
    ++pass;
    r.summary = {{"cells", static_cast<double>(cells.size())}};
    double f1 = 0, scored = 0;
    for (const CellOutcome& c : cells) {
      f1 += c.macro_f1;
      scored += static_cast<double>(c.rows_scored);
    }
    r.summary["macro_f1"] = f1 / static_cast<double>(cells.size());
    r.summary["rows_scored"] = scored;
  } while ((!o.tiny && seconds_since(run_t0) < o.seconds) || (o.trace && wall_layered.empty()));
  r.attempted = w.cells.size() * pass;

  if (!o.trace) {
    const double wall = median(wall_core);
    r.values["setup_s"] = median(setup_s);
    r.values["wall_s"] = wall;
    r.values["cpu_s"] = median(cpu_core);
    r.values["macro_f1"] = r.summary["macro_f1"];
    r.values["pkts_per_s"] = r.summary["rows_scored"] / wall;
    // One batch request is a whole pass: every cell of the table.
    r.values["lat_p50_us"] = 1e6 * percentile(wall_core, 0.50);
    r.values["lat_p99_us"] = 1e6 * percentile(wall_core, 0.99);
    r.values["served_frac"] = 1.0;  // a cell that fails fails the run
    r.values["peak_rss_mb"] = rss;
    return r;
  }

  // Traced run: per-layer means per layered pass; the set-up layers come
  // from one probed layered set-up. Layers the workload never calls read 0.
  for (const MetricDef& m : kPerLayer) r.values[m.name] = 0;
  const double passes = static_cast<double>(wall_layered.size());
  for (const char* name :
       {"dataset.partition_s", "replearn.header_features_s", "replearn.byte_view_s",
        "replearn.pretrain_s", "replearn.fit_s", "replearn.predict_s", "ml.rf.fit_s",
        "ml.rf.predict_s", "ml.gbdt.fit_s", "ml.gbdt.predict_s", "ml.mlp.fit_s"})
    r.values[name] = probes.get(name).wall_s / passes;
  r.values["replearn.pretrain.cpu_util"] = probes.get("replearn.pretrain_s").cpu_util();
  for (const std::string layer : {"ml.rf", "ml.gbdt"}) {
    const LayerTime fit = probes.get(layer + ".fit_s");
    const LayerTime pred = probes.get(layer + ".predict_s");
    const double wall = fit.wall_s + pred.wall_s;
    r.values[layer + ".cpu_util"] = wall > 0 ? (fit.cpu_s + pred.cpu_s) / wall : 0;
  }
  r.values["ml.rows_fit"] = static_cast<double>(rows.fit) / passes;
  r.values["ml.rows_predicted"] = static_cast<double>(rows.predicted) / passes;
  r.values["trace_overhead_frac"] = median(wall_layered) / median(wall_core) - 1.0;

  probes.clear();
  probes.enabled = true;
  layered_setup(w, probes);
  r.values["trafficgen.generate_s"] = probes.get("trafficgen.generate_s").wall_s;
  r.values["dataset.clean_s"] = probes.get("dataset.clean_s").wall_s;
  return r;
}

}  // namespace perfbench
