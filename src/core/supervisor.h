// RunSupervisor: the fault-tolerant execution boundary around every
// benchmark scenario cell. The paper's evidence is a grid of ~100
// (task × model × split × ablation) cells; a production-scale run must
// survive any one of them throwing, diverging or hanging. Each cell runs
// guarded with:
//
//   * a typed RunError taxonomy (runerror.h) mapped from the ml layer's
//     low-level errors,
//   * a wall-clock watchdog (worker thread + deadline + cooperative
//     ml::CancelToken polled inside the epoch loops),
//   * divergence-aware retry — NaN/Inf loss aborts the cell early and
//     re-runs it at once with a perturbed seed and halved learning rate
//     (the fit is local and deterministic, so waiting recovers nothing),
//   * graceful degradation — failed cells render as FAILED(<reason>) while
//     the rest of the table and an end-of-run health summary still emit,
//   * checkpoint/resume — a JSONL journal keyed by a fingerprint of
//     (task, model, ScenarioOptions) lets an interrupted bench skip
//     completed cells on rerun; journal and BENCH_<table>.json artifact
//     writes are temp-file-then-rename so a crash never truncates them.
//
// Cells run one at a time, so each cell's wall clock and trace counter
// deltas are its own.
#pragma once

#include <chrono>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "core/pipeline.h"
#include "core/runerror.h"
#include "ml/guard.h"

namespace sugar::core {

/// Per-attempt perturbation applied on divergence retry.
struct RetryTweak {
  int attempt = 0;              // 0 on the first attempt
  std::uint64_t seed_bump = 0;  // added to ScenarioOptions::seed
  double lr_scale = 1.0;        // multiplies learning rates
};

/// Handed to the cell function: the retry tweak plus the watchdog's cancel
/// token. apply() folds both into a ScenarioOptions.
struct CellContext {
  RetryTweak tweak;
  ml::CancelToken* cancel = nullptr;

  void apply(ScenarioOptions& opts) const {
    opts.seed += tweak.seed_bump;
    opts.lr_scale *= tweak.lr_scale;
    opts.cancel = cancel;
  }
};

/// The journaled result of a successful cell: the common metric/timing
/// scalars plus a free-form `extra` object for bench-specific values
/// (purity histograms, feature importances, parameter counts, ...).
struct CellSummary {
  double accuracy = 0;
  double macro_f1 = 0;
  double micro_f1 = 0;
  double train_seconds = 0;
  double test_seconds = 0;
  std::size_t n_train = 0;
  std::size_t n_test = 0;
  Json extra = Json::object();
};

CellSummary summarize(const ml::Metrics& metrics);
CellSummary summarize(const ScenarioResult& result);
CellSummary summarize(const ShallowResult& result);

enum class CellStatus { kOk, kOkFromJournal, kFailed };

struct CellOutcome {
  CellStatus status = CellStatus::kFailed;
  RunErrorKind error = RunErrorKind::kInternal;  // valid when kFailed
  std::string message;
  int attempts = 0;
  CellSummary summary;  // valid when not kFailed
  /// Counter deltas observed across this cell's attempts
  /// ([{name, delta}...]); only populated when tracing is enabled. Cells
  /// run one at a time, so the deltas are exactly this cell's.
  Json trace_counters = Json::array();

  [[nodiscard]] bool ok() const { return status != CellStatus::kFailed; }
};

/// Identity of a cell inside a bench table. `key` is the journal
/// fingerprint; when empty it is derived from table/row/col (only stable
/// for cells whose identity is fully captured by their labels).
struct CellSpec {
  std::string table;
  std::string row;
  std::string col;
  std::string key;
};

/// Stable fingerprint of a scenario cell for the resume journal: hashes the
/// task, the model name and every result-affecting field of
/// ScenarioOptions (runtime knobs — cancel, lr_scale — excluded).
std::string scenario_cell_key(dataset::TaskId task, std::string_view model,
                              const ScenarioOptions& opts);

/// Fingerprint for non-scenario cells from free-form identity parts.
std::string generic_cell_key(std::initializer_list<std::string_view> parts);

struct SupervisorConfig {
  std::string bench_name = "bench";
  /// Wall-clock deadline per cell attempt in seconds; 0 disables the
  /// watchdog (cells run inline on the calling thread).
  double cell_timeout_s = 0;
  /// Divergence retries per cell (attempts = max_retries + 1).
  int max_retries = 2;
  /// Result artifact path; empty → "BENCH_<bench_name>.json".
  std::string json_path;
  /// Resume journal path; empty → "<json_path>.journal.jsonl".
  std::string journal_path;
  /// Load the journal and skip cells already completed there.
  bool resume = false;
  /// Suppress per-cell stderr progress lines (tests).
  bool quiet = false;
  /// When non-empty (--trace <path>): force trace mode to `spans` and have
  /// finalize() write a chrome://tracing-loadable trace_event JSON here in
  /// addition to the BENCH artifact.
  std::string trace_path;
};

/// Parses the strict bench CLI: --json <path>, --resume <journal>,
/// --cell-timeout-s <n>, --max-retries <n>, --trace <path>. Numeric values
/// use whole-string from_chars discipline (same as core/env); any malformed
/// or unknown flag yields nullopt with a diagnostic in `error`.
///
/// With a non-null `extra_args`, unknown flags are collected there verbatim
/// (in order, values included) instead of being an error, so a bench can
/// layer its own strict flags on top of the common set.
std::optional<SupervisorConfig> parse_bench_cli(std::string_view bench_name,
                                                int argc, const char* const* argv,
                                                std::string& error,
                                                std::vector<std::string>* extra_args = nullptr);
std::string bench_usage(std::string_view bench_name);

class RunSupervisor {
 public:
  using CellFn = std::function<CellSummary(CellContext&)>;

  explicit RunSupervisor(SupervisorConfig cfg);

  /// Runs one cell through the guarded boundary (journal lookup, watchdog,
  /// retry, journal append, artifact record). Never throws on cell failure
  /// — the outcome carries the taxonomy instead.
  CellOutcome run_cell(const CellSpec& spec, const CellFn& fn);

  /// "AC / F1" (as percentages) for ok cells, "FAILED(<reason>)" otherwise.
  static std::string format_cell(const CellOutcome& outcome);
  /// `ok_text` for ok cells, "FAILED(<reason>)" otherwise.
  static std::string format_cell(const CellOutcome& outcome,
                                 const std::string& ok_text);

  struct Health {
    int cells = 0;
    int ok = 0;
    int failed = 0;
    int from_journal = 0;
    int retried = 0;  // cells that needed >1 attempt
  };
  [[nodiscard]] const Health& health() const { return health_; }
  [[nodiscard]] const SupervisorConfig& config() const { return cfg_; }

  /// Writes the BENCH_<table>.json artifact (atomically), prints the
  /// end-of-run health summary to stdout, and returns false only when the
  /// artifact could not be written.
  bool finalize();

 private:
  struct AttemptResult {
    bool ok = false;
    CellSummary summary;
    RunErrorKind error = RunErrorKind::kInternal;
    std::string message;
  };

  AttemptResult run_attempt(const CellFn& fn, CellContext& ctx,
                            ml::CancelToken& token) const;
  static AttemptResult run_guarded(const CellFn& fn, CellContext& ctx);
  void record(const CellSpec& spec, const std::string& key,
              const CellOutcome& outcome, double wall_seconds);
  void append_journal(const Json& entry);

  SupervisorConfig cfg_;
  // Guards journal_, journal_lines_, records_ and health_. Benches call
  // run_cell from one thread; the lock keeps it safe for any caller that
  // does not.
  std::mutex mu_;
  std::map<std::string, Json> journal_;  // key → latest journal entry
  std::vector<std::string> journal_lines_;
  std::vector<Json> records_;
  Health health_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sugar::core
