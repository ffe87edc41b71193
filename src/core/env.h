// BenchmarkEnv: owns the generated datasets, the cleaning step, and the
// pre-trained encoder cache, so each bench binary pays dataset generation
// and pre-training once. Scale is controlled by environment variables
// (SUGAR_SCALE multiplies flow counts; SUGAR_EPOCHS overrides downstream
// epochs) so the same binaries run as a quick smoke or a full evaluation.
// Supervisor cells run one at a time (each on its watchdog thread), so they
// never touch the env at once; the accessors still lock one mutex, so an
// env stays safe to share between threads, and each lazily-built cache is
// populated exactly once.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "dataset/clean.h"
#include "dataset/task.h"
#include "ml/guard.h"
#include "replearn/model_zoo.h"
#include "replearn/pretrain.h"
#include "trafficgen/variant.h"

namespace sugar::core {

struct EnvConfig {
  std::uint64_t seed = 1;
  std::size_t flows_per_class_iscx = 30;
  std::size_t flows_per_class_ustc = 24;
  std::size_t flows_per_class_tls = 14;
  std::size_t backbone_flows = 320;
  double iscx_spurious = 0.05;
  double ustc_spurious = 0.10;

  // Downstream training budget. Shallow models are cheap and get the large
  // caps; the deep (encoder) scenarios use the *_deep caps so unfrozen
  // fine-tuning stays tractable on one core.
  int downstream_epochs = 12;
  std::size_t max_train_packets = 16000;
  std::size_t max_test_packets = 6000;
  std::size_t max_train_packets_deep = 6000;
  std::size_t max_test_packets_deep = 4000;

  // Pre-training budget.
  int pretrain_epochs = 6;
  std::size_t pretrain_max_samples = 6000;

  /// Reads SUGAR_SCALE / SUGAR_EPOCHS / SUGAR_SEED from the environment.
  static EnvConfig from_env();
};

class BenchmarkEnv {
 public:
  explicit BenchmarkEnv(EnvConfig cfg = EnvConfig::from_env());

  [[nodiscard]] const EnvConfig& config() const { return cfg_; }

  /// Cleaned task dataset, cached per (task, variant.tag()). A non-default
  /// variant (scenario-diversity cells) regenerates the source trace with
  /// its drift/family/reshaping knobs applied and cleans it with the same
  /// pipeline.
  const dataset::PacketDataset& task_dataset(
      dataset::TaskId task, const trafficgen::TraceVariant& variant = {});

  /// Cleaning census of a source dataset, cached per (source, variant.tag()).
  const dataset::CleaningReport& cleaning_report(
      dataset::SourceDataset src, const trafficgen::TraceVariant& variant = {});

  /// Unlabelled backbone pre-training dataset (cached).
  const dataset::PacketDataset& backbone();

  /// A fresh copy of the pre-trained bundle for a model (pre-training runs
  /// once per (kind, mode) and is cached). `cancel` is the supervisor's
  /// watchdog token; a cancelled pre-training unwinds before the cache is
  /// populated, so a later attempt re-runs it cleanly.
  replearn::ModelBundle pretrained(replearn::ModelKind kind,
                                   replearn::TaskMode mode,
                                   const ml::CancelToken* cancel = nullptr);

 private:
  using SourceKey = std::pair<dataset::SourceDataset, std::string>;
  using TaskKey = std::pair<dataset::TaskId, std::string>;

  /// Generates and cleans the source trace once per (src, variant.tag());
  /// returns that cache key.
  SourceKey ensure_source(dataset::SourceDataset src,
                          const trafficgen::TraceVariant& variant);

  EnvConfig cfg_;
  /// Guards every lazily-built cache, so threads can share one env.
  /// Recursive because pretrained() reaches backbone() and task_dataset()
  /// reaches ensure_source(). The first accessor pays generation/pre-training under
  /// the lock; later readers get the cached object.
  mutable std::recursive_mutex mu_;
  /// Keyed by (source or task, the variant's canonical tag).
  std::map<SourceKey, trafficgen::GeneratedTrace> traces_;
  std::map<SourceKey, dataset::CleaningReport> cleaning_;
  std::map<TaskKey, dataset::PacketDataset> tasks_;
  std::optional<dataset::PacketDataset> backbone_;
  std::map<std::pair<replearn::ModelKind, replearn::TaskMode>, replearn::ModelBundle>
      pretrained_;
};

}  // namespace sugar::core
