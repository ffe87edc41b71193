#include "core/pipeline.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <random>
#include <unordered_map>

#include "core/trace.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/mlp.h"
#include "ml/preprocess.h"
#include "replearn/head.h"

namespace sugar::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<std::size_t> iota_indices(std::size_t n) {
  std::vector<std::size_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

/// Builds the train/test PacketDataset pair for a scenario: split, balance
/// the training side, cap sizes, apply ablations.
struct Partitions {
  dataset::PacketDataset train;
  dataset::PacketDataset test;
  dataset::LeakageReport audit;
};

/// `ds` is the training-side dataset; `test_ds` supplies the held-out
/// partition and may be a different generation (drift epoch, capture
/// family). When both refer to the same object the legacy single-dataset
/// path runs unchanged; otherwise `test_ds` is split with the same
/// policy/seed and only its held-out half is used, so a cross-variant cell
/// never tests on packets whose flows were trained on in either world.
Partitions make_partitions(const dataset::PacketDataset& ds,
                           const dataset::PacketDataset& test_ds,
                           std::size_t max_train, std::size_t max_test,
                           const ScenarioOptions& opts) {
  SUGAR_TRACE_SPAN("pipeline.partition");
  dataset::SplitOptions sopts;
  sopts.policy = opts.split;
  sopts.seed = opts.seed;
  auto split = dataset::split_dataset(ds, sopts);
  const bool cross = &test_ds != &ds;

  auto train_idx = dataset::cap_flow_length(ds, split.train, 1000, opts.seed ^ 1);
  train_idx = dataset::balance_train(ds, train_idx, opts.seed ^ 2);
  if (train_idx.size() > max_train) {
    double frac = static_cast<double>(max_train) / static_cast<double>(train_idx.size());
    train_idx = dataset::stratified_sample(ds, train_idx, frac, opts.seed ^ 3);
  }
  auto test_idx = cross ? dataset::split_dataset(test_ds, sopts).test : split.test;
  if (test_idx.size() > max_test) {
    double frac = static_cast<double>(max_test) / static_cast<double>(test_idx.size());
    test_idx = dataset::stratified_sample(test_ds, test_idx, frac, opts.seed ^ 4);
  }

  if (train_idx.empty() || test_idx.empty())
    throw RunError(RunErrorKind::kEmptyPartition,
                   "split policy '" + dataset::to_string(opts.split) +
                       "' left an empty partition (train=" +
                       std::to_string(train_idx.size()) +
                       ", test=" + std::to_string(test_idx.size()) +
                       " of " + std::to_string(ds.size()) + " packets)");

  Partitions parts;
  // The leakage audit covers the training dataset's own split; a cross-
  // variant held-out side is a distinct generation and cannot share flows
  // with the training partition by construction.
  parts.audit = dataset::audit_split(
      ds, {.train = train_idx, .test = cross ? split.test : test_idx});
  parts.train = ds.subset(train_idx);
  parts.test = test_ds.subset(test_idx);
  dataset::apply_ablation(parts.train, opts.train_ablation, opts.seed ^ 5);
  dataset::apply_ablation(parts.test, opts.test_ablation, opts.seed ^ 6);
  // Adversarial jitter is strictly test-time: the training partition never
  // sees it, mirroring a deployment stack that changed after training.
  dataset::apply_perturbation(parts.test, opts.perturb, opts.seed ^ 0xAD7);
  return parts;
}

IngestHealth ingest_health(BenchmarkEnv& env, dataset::TaskId task,
                           const trafficgen::TraceVariant& variant) {
  const auto& census = env.cleaning_report(dataset::source_of(task), variant);
  return {.source_packets = census.total_packets,
          .malformed_frames = census.removed_malformed,
          .spurious_removed = census.removed_spurious_total()};
}

/// The held-out dataset for a scenario: the training dataset itself unless
/// the test variant differs (drift / cross-family cells).
const dataset::PacketDataset& test_dataset_for(BenchmarkEnv& env,
                                               dataset::TaskId task,
                                               const dataset::PacketDataset& train_ds,
                                               const ScenarioOptions& opts) {
  if (opts.test_variant == opts.train_variant) return train_ds;
  return env.task_dataset(task, opts.test_variant);
}

replearn::DownstreamConfig downstream_config(const EnvConfig& env_cfg,
                                             const ScenarioOptions& opts) {
  replearn::DownstreamConfig cfg;
  cfg.frozen = opts.frozen;
  // The paper trains frozen heads ~3x longer than unfrozen fine-tuning
  // (60 vs 20 epochs for ET-BERT); frozen epochs are cheap because the
  // embeddings are computed once. Early stopping bounds the effective
  // epoch count either way.
  cfg.epochs = opts.frozen ? env_cfg.downstream_epochs * 3
                           : env_cfg.downstream_epochs * 3 / 2;
  // Validation policy follows the split policy: per-flow pipelines hold out
  // whole flows; per-packet pipelines (the flawed prior-work protocol)
  // validate on leaked samples and therefore never notice the overfit.
  cfg.flow_holdout_validation = opts.split == dataset::SplitPolicy::PerFlow;
  cfg.seed = opts.seed ^ 0xD0;
  // Supervisor knobs: divergence retries shrink the learning rates; the
  // watchdog's cancel token is polled inside the epoch loops.
  cfg.lr_head *= static_cast<float>(opts.lr_scale);
  cfg.lr_encoder *= static_cast<float>(opts.lr_scale);
  cfg.cancel = opts.cancel;
  return cfg;
}

}  // namespace

std::string to_string(ShallowKind k) {
  switch (k) {
    case ShallowKind::RandomForest: return "RF";
    case ShallowKind::XgboostStyle: return "XGBoost";
    case ShallowKind::LightGbmStyle: return "LightGBM";
    case ShallowKind::Mlp: return "MLP";
  }
  return "?";
}

ScenarioResult run_packet_scenario(BenchmarkEnv& env, dataset::TaskId task,
                                   replearn::ModelKind model,
                                   const ScenarioOptions& opts) {
  return run_packet_scenario_with_bundle(
      env, task, env.pretrained(model, replearn::TaskMode::Packet, opts.cancel),
      opts);
}

ScenarioResult run_packet_scenario_with_bundle(BenchmarkEnv& env,
                                               dataset::TaskId task,
                                               replearn::ModelBundle bundle,
                                               const ScenarioOptions& opts) {
  const auto& ds = env.task_dataset(task, opts.train_variant);
  const auto& test_ds = test_dataset_for(env, task, ds, opts);
  const auto& ec = env.config();
  Partitions parts = make_partitions(ds, test_ds, ec.max_train_packets_deep,
                                     ec.max_test_packets_deep, opts);

  if (opts.discard_pretraining) bundle.encoder->reinitialize(opts.seed ^ 0xF00D);

  ml::Matrix x_train, x_test;
  {
    SUGAR_TRACE_SPAN("pipeline.featurize");
    x_train =
        bundle.featurize_packets(parts.train, iota_indices(parts.train.size()));
    x_test =
        bundle.featurize_packets(parts.test, iota_indices(parts.test.size()));
  }

  replearn::DownstreamModel dm(std::move(bundle.encoder), ds.num_classes,
                               downstream_config(env.config(), opts));

  ScenarioResult result;
  result.audit = parts.audit;
  result.n_train = parts.train.size();
  result.n_test = parts.test.size();
  result.ingest = ingest_health(env, task, opts.train_variant);

  auto t0 = Clock::now();
  {
    SUGAR_TRACE_SPAN("pipeline.fit");
    dm.fit(x_train, parts.train.label, parts.train.flow_id);
  }
  result.train_seconds = seconds_since(t0);

  t0 = Clock::now();
  std::vector<int> pred;
  {
    SUGAR_TRACE_SPAN("pipeline.predict");
    pred = dm.predict(x_test);
  }
  result.test_seconds = seconds_since(t0);
  result.metrics = ml::evaluate(parts.test.label, pred, ds.num_classes);

  if (opts.export_embeddings > 0) {
    std::size_t n = std::min<std::size_t>(opts.export_embeddings, parts.test.size());
    auto idx = iota_indices(parts.test.size());
    std::mt19937_64 rng(opts.seed ^ 0xE0B);
    std::shuffle(idx.begin(), idx.end(), rng);
    idx.resize(n);
    result.embeddings = dm.embeddings(x_test.take_rows(idx));
    result.embedding_labels.reserve(n);
    for (std::size_t i : idx) result.embedding_labels.push_back(parts.test.label[i]);
  }
  return result;
}

ScenarioResult run_flow_scenario(BenchmarkEnv& env, dataset::TaskId task,
                                 replearn::ModelKind model,
                                 const ScenarioOptions& opts,
                                 std::size_t min_flow_len) {
  const auto& ds = env.task_dataset(task, opts.train_variant);
  const auto& test_ds = test_dataset_for(env, task, ds, opts);
  // Only per-flow split is meaningful here (the paper: "Only per-flow split
  // is viable in this case").
  ScenarioOptions flow_opts = opts;
  flow_opts.split = dataset::SplitPolicy::PerFlow;
  const auto& ec = env.config();
  Partitions parts = make_partitions(ds, test_ds, ec.max_train_packets_deep,
                                     ec.max_test_packets_deep, flow_opts);

  auto collect_flows = [&](const dataset::PacketDataset& part) {
    std::vector<std::vector<std::size_t>> flows;
    std::vector<int> labels;
    std::unordered_map<int, std::vector<std::size_t>> by_flow;
    for (std::size_t i = 0; i < part.size(); ++i) by_flow[part.flow_id[i]].push_back(i);
    for (auto& [fid, idx] : by_flow) {
      if (idx.size() < min_flow_len) continue;
      std::sort(idx.begin(), idx.end());
      flows.push_back(idx);
      labels.push_back(part.label[idx.front()]);
    }
    return std::make_pair(flows, labels);
  };
  auto [train_flows, y_train] = collect_flows(parts.train);
  auto [test_flows, y_test] = collect_flows(parts.test);

  ScenarioResult result;
  result.audit = parts.audit;
  result.n_train = train_flows.size();
  result.n_test = test_flows.size();
  result.ingest = ingest_health(env, task, opts.train_variant);
  if (train_flows.empty() || test_flows.empty())
    throw RunError(RunErrorKind::kEmptyPartition,
                   "no flows with >= " + std::to_string(min_flow_len) +
                       " packets survived the split (train=" +
                       std::to_string(train_flows.size()) +
                       " flows, test=" + std::to_string(test_flows.size()) +
                       " flows)");

  if (model == replearn::ModelKind::PcapEncoder) {
    // Paper §6.2: frozen packet-level classification of the first 5
    // packets, then majority vote. No flow-level training.
    auto bundle = env.pretrained(model, replearn::TaskMode::Packet, opts.cancel);
    ml::Matrix x_train =
        bundle.featurize_packets(parts.train, iota_indices(parts.train.size()));
    replearn::DownstreamConfig cfg = downstream_config(env.config(), opts);
    cfg.frozen = true;
    replearn::DownstreamModel dm(std::move(bundle.encoder), ds.num_classes, cfg);

    auto t0 = Clock::now();
    dm.fit(x_train, parts.train.label, parts.train.flow_id);
    result.train_seconds = seconds_since(t0);

    // featurize_packets reads only the bundle's view, so it still works
    // after the encoder moved into dm.
    t0 = Clock::now();
    std::vector<int> pred;
    pred.reserve(test_flows.size());
    for (const auto& flow : test_flows) {
      std::vector<std::size_t> first(flow.begin(),
                                     flow.begin() + static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                                         flow.size(), 5)));
      ml::Matrix xf = bundle.featurize_packets(parts.test, first);
      auto votes = dm.predict(xf);
      std::unordered_map<int, int> counts;
      for (int v : votes) ++counts[v];
      int best = votes.front(), best_n = 0;
      for (auto [cls, n] : counts)
        if (n > best_n) {
          best = cls;
          best_n = n;
        }
      pred.push_back(best);
    }
    result.test_seconds = seconds_since(t0);
    result.metrics = ml::evaluate(y_test, pred, ds.num_classes);
    return result;
  }

  auto bundle = env.pretrained(model, replearn::TaskMode::Flow, opts.cancel);
  if (opts.discard_pretraining) bundle.encoder->reinitialize(opts.seed ^ 0xF00D);

  ml::Matrix x_train, x_test;
  {
    SUGAR_TRACE_SPAN("pipeline.featurize");
    x_train = bundle.featurize_flows(parts.train, train_flows);
    x_test = bundle.featurize_flows(parts.test, test_flows);
  }

  replearn::DownstreamModel dm(std::move(bundle.encoder), ds.num_classes,
                               downstream_config(env.config(), opts));
  auto t0 = Clock::now();
  {
    SUGAR_TRACE_SPAN("pipeline.fit");
    dm.fit(x_train, y_train);  // one row per flow: sample holdout is flow holdout
  }
  result.train_seconds = seconds_since(t0);

  t0 = Clock::now();
  std::vector<int> pred;
  {
    SUGAR_TRACE_SPAN("pipeline.predict");
    pred = dm.predict(x_test);
  }
  result.test_seconds = seconds_since(t0);
  result.metrics = ml::evaluate(y_test, pred, ds.num_classes);
  return result;
}

ShallowResult run_shallow_scenario(BenchmarkEnv& env, dataset::TaskId task,
                                   ShallowKind kind, bool include_ip,
                                   const ScenarioOptions& opts) {
  const auto& ds = env.task_dataset(task, opts.train_variant);
  const auto& test_ds = test_dataset_for(env, task, ds, opts);
  const auto& ec = env.config();
  Partitions parts = make_partitions(ds, test_ds, ec.max_train_packets,
                                     ec.max_test_packets, opts);

  replearn::HeaderFeatureSpec spec{.include_ip_addresses = include_ip};
  ml::Matrix x_train, x_test;
  {
    SUGAR_TRACE_SPAN("pipeline.featurize");
    x_train = replearn::header_feature_matrix(
        parts.train, iota_indices(parts.train.size()), spec);
    x_test = replearn::header_feature_matrix(
        parts.test, iota_indices(parts.test.size()), spec);
  }

  ShallowResult result;
  result.n_train = parts.train.size();
  result.n_test = parts.test.size();
  result.ingest = ingest_health(env, task, opts.train_variant);
  result.feature_names = replearn::header_feature_names(spec);

  std::vector<int> pred;
  // One span over the whole switch: each case interleaves its fit and
  // predict timing, so they share a train_eval phase here while the ml
  // layer's own ml.*.fit / ml.*.predict spans keep them separable.
  SUGAR_TRACE_SPAN("pipeline.train_eval");
  auto t0 = Clock::now();
  switch (kind) {
    case ShallowKind::RandomForest: {
      ml::ForestConfig cfg;
      cfg.cancel = opts.cancel;
      if (opts.forest_trees > 0) cfg.num_trees = opts.forest_trees;
      ml::RandomForest rf(cfg);
      rf.fit(x_train, parts.train.label, ds.num_classes);
      result.train_seconds = seconds_since(t0);
      t0 = Clock::now();
      pred = rf.predict(x_test);
      result.feature_importance = rf.feature_importance();
      break;
    }
    case ShallowKind::XgboostStyle:
    case ShallowKind::LightGbmStyle: {
      auto cfg = kind == ShallowKind::XgboostStyle ? ml::GbdtConfig::xgboost_style()
                                                   : ml::GbdtConfig::lightgbm_style();
      cfg.learning_rate *= static_cast<float>(opts.lr_scale);
      cfg.cancel = opts.cancel;
      ml::GradientBoosting gb(cfg);
      gb.fit(x_train, parts.train.label, ds.num_classes);
      result.train_seconds = seconds_since(t0);
      t0 = Clock::now();
      pred = gb.predict(x_test);
      result.feature_importance = gb.feature_importance();
      break;
    }
    case ShallowKind::Mlp: {
      ml::StandardScaler scaler;
      scaler.fit(x_train);
      scaler.transform(x_train);
      scaler.transform(x_test);
      ml::MlpConfig cfg;
      cfg.epochs = env.config().downstream_epochs * 2;
      cfg.learning_rate *= static_cast<float>(opts.lr_scale);
      cfg.seed = opts.seed ^ 0x5A;
      cfg.cancel = opts.cancel;
      ml::MlpClassifier mlp(cfg);
      mlp.fit(x_train, parts.train.label, ds.num_classes);
      result.train_seconds = seconds_since(t0);
      t0 = Clock::now();
      pred = mlp.predict(x_test);
      break;
    }
  }
  result.test_seconds = seconds_since(t0);
  result.metrics = ml::evaluate(parts.test.label, pred, ds.num_classes);
  return result;
}

ml::PurityHistogram purity_of(const ScenarioResult& result, int k) {
  if (!result.embeddings) return {};
  return ml::knn_purity(*result.embeddings, result.embedding_labels, k);
}

}  // namespace sugar::core
