// Scenario runners — each (task, model, split, frozen/unfrozen, ablation)
// cell of the paper's result tables maps to one call here. The runners
// enforce the recommended methodology: clean data, split, balance the
// training set by undersampling, keep the test distribution natural, audit
// the split, train, and report accuracy + macro F1.
#pragma once

#include <functional>
#include <optional>

#include "core/env.h"
#include "core/runerror.h"
#include "dataset/audit.h"
#include "dataset/split.h"
#include "dataset/transforms.h"
#include "ml/guard.h"
#include "ml/knn.h"
#include "ml/metrics.h"

namespace sugar::core {

struct ScenarioOptions {
  dataset::SplitPolicy split = dataset::SplitPolicy::PerFlow;
  bool frozen = true;
  /// Applied to the training partition before featurization.
  dataset::AblationSpec train_ablation;
  /// Applied to the test partition before featurization.
  dataset::AblationSpec test_ablation;
  /// Table 6 "w/o Pre-training": reinitialize encoder weights at random.
  bool discard_pretraining = false;
  std::uint64_t seed = 5;
  /// When set, test embeddings (subsampled) are exported for Fig-4-style
  /// purity analysis.
  std::size_t export_embeddings = 0;
  /// Random-forest tree count override for scaling ladders (0 = the
  /// ForestConfig default). Cells varying this must put it in their key.
  int forest_trees = 0;
  /// Scenario diversity: the dataset variant the training partition is
  /// generated from, and the (possibly different) variant the held-out
  /// partition comes from — train-on-epoch-0/test-on-epoch-N drift cells
  /// and train-on-family-A/test-on-family-B transfer cells.
  trafficgen::TraceVariant train_variant;
  trafficgen::TraceVariant test_variant;
  /// Adversarial header jitter applied to the held-out partition only,
  /// after test ablations. Seeded and deterministic.
  dataset::PerturbSpec perturb;

  // --- Runtime knobs set by the supervisor, excluded from journal keys. ---
  /// Learning-rate multiplier; the divergence retry halves it per attempt.
  double lr_scale = 1.0;
  /// Cooperative cancellation polled inside every training loop (the
  /// per-cell watchdog). Null disables.
  const ml::CancelToken* cancel = nullptr;
};

/// Ingestion health of the source trace a scenario ran on, copied from the
/// cleaning census so every result row can surface malformed-frame counts
/// instead of silently training on a degraded capture.
struct IngestHealth {
  std::size_t source_packets = 0;    // trace size before cleaning
  std::size_t malformed_frames = 0;  // frames the parser rejected
  std::size_t spurious_removed = 0;  // Table-13 extraneous removals

  [[nodiscard]] double malformed_fraction() const {
    return source_packets == 0 ? 0.0
                               : static_cast<double>(malformed_frames) /
                                     static_cast<double>(source_packets);
  }
};

struct ScenarioResult {
  ml::Metrics metrics;
  double train_seconds = 0;
  double test_seconds = 0;
  std::size_t n_train = 0;
  std::size_t n_test = 0;
  IngestHealth ingest;
  dataset::LeakageReport audit;
  /// Present when options.export_embeddings > 0.
  std::optional<ml::Matrix> embeddings;
  std::vector<int> embedding_labels;
};

/// Packet-level classification (Tables 3-6, Fig 1/4).
///
/// All runners throw RunError(kEmptyPartition) when the split/cleaning
/// combination leaves the train or test partition empty, and propagate the
/// ml layer's typed errors (divergence, cancellation, internal) — the
/// supervisor maps them onto the RunError taxonomy per cell.
ScenarioResult run_packet_scenario(BenchmarkEnv& env, dataset::TaskId task,
                                   replearn::ModelKind model,
                                   const ScenarioOptions& opts);

/// Same, but with a caller-supplied (already pre-trained) bundle — used by
/// the pre-training ablation (Table 11), which needs Pcap-Encoder variants
/// with individual pre-training phases disabled.
ScenarioResult run_packet_scenario_with_bundle(BenchmarkEnv& env,
                                               dataset::TaskId task,
                                               replearn::ModelBundle bundle,
                                               const ScenarioOptions& opts);

/// Flow-level classification (Table 9). Flows shorter than `min_flow_len`
/// packets are dropped; Pcap-Encoder uses frozen packet-level majority
/// voting per the paper's §6.2.
ScenarioResult run_flow_scenario(BenchmarkEnv& env, dataset::TaskId task,
                                 replearn::ModelKind model,
                                 const ScenarioOptions& opts,
                                 std::size_t min_flow_len = 5);

enum class ShallowKind { RandomForest, XgboostStyle, LightGbmStyle, Mlp };
std::string to_string(ShallowKind k);

struct ShallowResult {
  ml::Metrics metrics;
  double train_seconds = 0;
  double test_seconds = 0;
  std::size_t n_train = 0;
  std::size_t n_test = 0;
  IngestHealth ingest;
  std::vector<double> feature_importance;  // trees only
  std::vector<std::string> feature_names;
};

/// Shallow baselines on hand-crafted header features (Table 8, Fig 5/6).
ShallowResult run_shallow_scenario(BenchmarkEnv& env, dataset::TaskId task,
                                   ShallowKind kind, bool include_ip,
                                   const ScenarioOptions& opts);

/// Fig 4: 5-NN purity of a scenario's exported embeddings.
ml::PurityHistogram purity_of(const ScenarioResult& result, int k = 5);

}  // namespace sugar::core
