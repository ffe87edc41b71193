#include "core/supervisor.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "core/envparse.h"
#include "core/threadpool.h"
#include "core/trace.h"
#include "core/trace_json.h"

namespace sugar::core {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string ablation_bits(const dataset::AblationSpec& spec) {
  std::string bits;
  for (bool b : {spec.randomize_seq_ack, spec.randomize_tstamp, spec.zero_ip,
                 spec.randomize_ip, spec.zero_ports, spec.zero_payload,
                 spec.strip_payload, spec.zero_header})
    bits += b ? '1' : '0';
  return bits;
}

Json summary_to_json(const CellSummary& s) {
  Json j = Json::object();
  j.set("accuracy", Json(s.accuracy));
  j.set("macro_f1", Json(s.macro_f1));
  j.set("micro_f1", Json(s.micro_f1));
  j.set("train_seconds", Json(s.train_seconds));
  j.set("test_seconds", Json(s.test_seconds));
  j.set("n_train", Json(s.n_train));
  j.set("n_test", Json(s.n_test));
  j.set("extra", s.extra);
  return j;
}

CellSummary summary_from_json(const Json& j) {
  CellSummary s;
  auto num = [&](const char* key) {
    const Json* v = j.find(key);
    return v ? v->number_or(0) : 0.0;
  };
  s.accuracy = num("accuracy");
  s.macro_f1 = num("macro_f1");
  s.micro_f1 = num("micro_f1");
  s.train_seconds = num("train_seconds");
  s.test_seconds = num("test_seconds");
  s.n_train = static_cast<std::size_t>(num("n_train"));
  s.n_test = static_cast<std::size_t>(num("n_test"));
  if (const Json* e = j.find("extra")) s.extra = *e;
  return s;
}

}  // namespace

CellSummary summarize(const ml::Metrics& metrics) {
  CellSummary s;
  s.accuracy = metrics.accuracy;
  s.macro_f1 = metrics.macro_f1;
  s.micro_f1 = metrics.micro_f1;
  return s;
}

CellSummary summarize(const ScenarioResult& result) {
  CellSummary s = summarize(result.metrics);
  s.train_seconds = result.train_seconds;
  s.test_seconds = result.test_seconds;
  s.n_train = result.n_train;
  s.n_test = result.n_test;
  s.extra.set("audit_clean", Json(result.audit.clean()));
  return s;
}

CellSummary summarize(const ShallowResult& result) {
  CellSummary s = summarize(result.metrics);
  s.train_seconds = result.train_seconds;
  s.test_seconds = result.test_seconds;
  s.n_train = result.n_train;
  s.n_test = result.n_test;
  return s;
}

std::string scenario_cell_key(dataset::TaskId task, std::string_view model,
                              const ScenarioOptions& opts) {
  std::string canon;
  canon += "task=" + dataset::to_string(task);
  canon += ";model=" + std::string(model);
  canon += ";split=" + dataset::to_string(opts.split);
  canon += ";frozen=" + std::string(opts.frozen ? "1" : "0");
  canon += ";abl_train=" + ablation_bits(opts.train_ablation);
  canon += ";abl_test=" + ablation_bits(opts.test_ablation);
  canon += ";nopre=" + std::string(opts.discard_pretraining ? "1" : "0");
  canon += ";seed=" + std::to_string(opts.seed);
  canon += ";emb=" + std::to_string(opts.export_embeddings);
  // Scenario-diversity parameters join the fingerprint only when active, so
  // pre-existing journals and golden artifacts keep their keys while any
  // drift-epoch / family / perturbation change invalidates stale cells.
  if (opts.forest_trees > 0)
    canon += ";trees=" + std::to_string(opts.forest_trees);
  if (!opts.train_variant.is_default() || !opts.test_variant.is_default()) {
    canon += ";var_train=" + opts.train_variant.tag();
    canon += ";var_test=" + opts.test_variant.tag();
  }
  if (opts.perturb.any()) canon += ";perturb=" + opts.perturb.tag();
  return hex64(fnv1a64(canon));
}

std::string generic_cell_key(std::initializer_list<std::string_view> parts) {
  std::string canon;
  for (auto part : parts) {
    canon += part;
    canon += '\x1f';
  }
  return hex64(fnv1a64(canon));
}

std::string bench_usage(std::string_view bench_name) {
  std::string u;
  u += "usage: bench_" + std::string(bench_name) + " [options]\n";
  u += "  --json <path>            write BENCH json artifact to <path>\n";
  u += "  --resume <journal>       resume from a JSONL journal, skipping ok cells\n";
  u += "  --cell-timeout-s <n>     wall-clock watchdog deadline per cell (n > 0)\n";
  u += "  --max-retries <n>        divergence retries per cell (n >= 0)\n";
  u += "  --trace <path>           force SUGAR_TRACE=spans and write a chrome://tracing\n";
  u += "                           trace_event JSON to <path> on finalize\n";
  return u;
}

std::optional<SupervisorConfig> parse_bench_cli(std::string_view bench_name,
                                                int argc, const char* const* argv,
                                                std::string& error,
                                                std::vector<std::string>* extra_args) {
  SupervisorConfig cfg;
  cfg.bench_name = std::string(bench_name);
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&]() -> std::optional<std::string_view> {
      if (i + 1 >= argc) {
        error = "missing value for " + std::string(arg);
        return std::nullopt;
      }
      return std::string_view(argv[++i]);
    };
    if (arg == "--json") {
      auto v = value();
      if (!v) return std::nullopt;
      cfg.json_path = std::string(*v);
    } else if (arg == "--resume") {
      auto v = value();
      if (!v) return std::nullopt;
      cfg.journal_path = std::string(*v);
      cfg.resume = true;
    } else if (arg == "--cell-timeout-s") {
      auto v = value();
      if (!v) return std::nullopt;
      double n = 0;
      if (!parse_number(*v, n) || n <= 0) {
        error = "malformed --cell-timeout-s '" + std::string(*v) +
                "' (want a positive number)";
        return std::nullopt;
      }
      cfg.cell_timeout_s = n;
    } else if (arg == "--max-retries") {
      auto v = value();
      if (!v) return std::nullopt;
      int n = 0;
      if (!parse_number(*v, n) || n < 0) {
        error = "malformed --max-retries '" + std::string(*v) +
                "' (want a non-negative integer)";
        return std::nullopt;
      }
      cfg.max_retries = n;
    } else if (arg == "--trace") {
      auto v = value();
      if (!v) return std::nullopt;
      if (v->empty()) {
        error = "malformed --trace '' (want a file path)";
        return std::nullopt;
      }
      cfg.trace_path = std::string(*v);
    } else if (extra_args != nullptr) {
      extra_args->push_back(std::string(arg));
    } else {
      error = "unknown flag '" + std::string(arg) + "'";
      return std::nullopt;
    }
  }
  if (cfg.json_path.empty()) cfg.json_path = "BENCH_" + cfg.bench_name + ".json";
  if (cfg.journal_path.empty()) cfg.journal_path = cfg.json_path + ".journal.jsonl";
  return cfg;
}

RunSupervisor::RunSupervisor(SupervisorConfig cfg)
    : cfg_(std::move(cfg)), start_(Clock::now()) {
  // --trace implies the full span timeline regardless of SUGAR_TRACE.
  if (!cfg_.trace_path.empty()) trace::set_mode(trace::Mode::kSpans);
  if (cfg_.json_path.empty()) cfg_.json_path = "BENCH_" + cfg_.bench_name + ".json";
  if (cfg_.journal_path.empty())
    cfg_.journal_path = cfg_.json_path + ".journal.jsonl";
  if (cfg_.resume) {
    std::size_t torn = 0;
    for (Json& entry : load_jsonl(cfg_.journal_path, &torn)) {
      const Json* key = entry.find("key");
      if (!key) continue;
      journal_lines_.push_back(entry.dump());
      journal_[key->string_or("")] = std::move(entry);  // latest occurrence wins
    }
    if (!cfg_.quiet)
      std::fprintf(stderr,
                   "[supervisor:%s] resume: %zu journal entr%s loaded from %s%s\n",
                   cfg_.bench_name.c_str(), journal_.size(),
                   journal_.size() == 1 ? "y" : "ies", cfg_.journal_path.c_str(),
                   torn ? " (torn trailing line dropped)" : "");
  }
}

RunSupervisor::AttemptResult RunSupervisor::run_guarded(const CellFn& fn,
                                                        CellContext& ctx) {
  AttemptResult result;
  try {
    result.summary = fn(ctx);
    result.ok = true;
  } catch (const ml::DivergenceError& e) {
    result.error = RunErrorKind::kDivergence;
    result.message = e.what();
  } catch (const ml::CancelledError& e) {
    result.error = RunErrorKind::kTimeout;
    result.message = e.what();
  } catch (const RunError& e) {
    result.error = e.kind();
    result.message = e.what();
  } catch (const ml::InternalError& e) {
    result.error = RunErrorKind::kInternal;
    result.message = e.what();
  } catch (const std::exception& e) {
    result.error = RunErrorKind::kInternal;
    result.message = e.what();
  } catch (...) {
    result.error = RunErrorKind::kInternal;
    result.message = "unknown exception";
  }
  return result;
}

RunSupervisor::AttemptResult RunSupervisor::run_attempt(
    const CellFn& fn, CellContext& ctx, ml::CancelToken& token) const {
  if (cfg_.cell_timeout_s <= 0) return run_guarded(fn, ctx);

  AttemptResult result;
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
  std::thread worker([&] {
    AttemptResult r = run_guarded(fn, ctx);
    {
      std::lock_guard<std::mutex> lock(m);
      result = std::move(r);
      done = true;
    }
    cv.notify_all();
  });

  bool timed_out = false;
  {
    std::unique_lock<std::mutex> lock(m);
    if (!cv.wait_for(lock, std::chrono::duration<double>(cfg_.cell_timeout_s),
                     [&] { return done; })) {
      timed_out = true;
      token.cancel();
      // Cancellation is cooperative: the worker observes the token at its
      // next batch boundary and unwinds with CancelledError.
      cv.wait(lock, [&] { return done; });
    }
  }
  worker.join();
  if (timed_out && !result.ok) {
    // Whatever the unwind surfaced as, the root cause is the deadline.
    result.error = RunErrorKind::kTimeout;
    result.message = "cell exceeded " + std::to_string(cfg_.cell_timeout_s) +
                     "s deadline (" + result.message + ")";
  }
  return result;
}

CellOutcome RunSupervisor::run_cell(const CellSpec& spec, const CellFn& fn) {
  const std::string key =
      spec.key.empty() ? generic_cell_key({spec.table, spec.row, spec.col})
                       : spec.key;
  // Checkpoint/resume: a cell already completed ok in the journal is not
  // recomputed; its recorded summary (and original wall-clock) feeds the
  // table as-is.
  if (cfg_.resume) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = journal_.find(key);
    if (it != journal_.end()) {
      const Json* status = it->second.find("status");
      if (status && status->string_or("") == "ok") {
        CellOutcome outcome;
        outcome.status = CellStatus::kOkFromJournal;
        const Json* attempts = it->second.find("attempts");
        outcome.attempts = attempts ? static_cast<int>(attempts->number_or(1)) : 1;
        if (const Json* summary = it->second.find("summary"))
          outcome.summary = summary_from_json(*summary);
        const Json* recorded_wall = it->second.find("wall_seconds");
        ++health_.cells;
        ++health_.ok;
        ++health_.from_journal;
        record(spec, key, outcome, recorded_wall ? recorded_wall->number_or(0) : 0);
        lock.unlock();
        SUGAR_TRACE_COUNT("supervisor.cells_from_journal", 1);
        if (!cfg_.quiet)
          std::fprintf(stderr, "[supervisor:%s] %s / %s: from journal\n",
                       cfg_.bench_name.c_str(), spec.row.c_str(), spec.col.c_str());
        return outcome;
      }
    }
  }

  CellOutcome outcome;
  auto t0 = Clock::now();
  // Cell lifecycle observability: one span over all attempts of this cell
  // plus counter deltas across them (see CellOutcome::trace_counters).
  const bool tracing = trace::enabled();
  std::vector<trace::CounterValue> counters_before;
  if (tracing) counters_before = trace::counters_snapshot();
  SUGAR_TRACE_COUNT("supervisor.cells_started", 1);
  SUGAR_TRACE_SPAN("supervisor.cell");
  for (int attempt = 0; attempt <= cfg_.max_retries; ++attempt) {
    if (attempt > 0) SUGAR_TRACE_COUNT("supervisor.retry_attempts", 1);
    ml::CancelToken token;
    CellContext ctx;
    ctx.tweak.attempt = attempt;
    // Golden-ratio seed bump decorrelates the retry from the diverged run;
    // halving the learning rate attacks the usual divergence cause.
    ctx.tweak.seed_bump = 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(attempt);
    ctx.tweak.lr_scale = std::pow(0.5, attempt);
    ctx.cancel = &token;

    AttemptResult r = run_attempt(fn, ctx, token);
    outcome.attempts = attempt + 1;
    if (r.ok) {
      outcome.status = CellStatus::kOk;
      outcome.summary = std::move(r.summary);
      break;
    }
    outcome.status = CellStatus::kFailed;
    outcome.error = r.error;
    outcome.message = r.message;
    // Only divergence is worth retrying: empty partitions and internal
    // errors are deterministic, and a timed-out cell would time out again.
    if (r.error != RunErrorKind::kDivergence) break;
  }
  const double wall = seconds_since(t0);
  if (outcome.ok())
    SUGAR_TRACE_COUNT("supervisor.cells_ok", 1);
  else
    SUGAR_TRACE_COUNT("supervisor.cells_failed", 1);
  if (tracing)
    outcome.trace_counters =
        counter_delta_json(counters_before, trace::counters_snapshot());

  // Journal the cell (ok or failed) with an atomic rewrite.
  Json entry = Json::object();
  entry.set("key", Json(key));
  entry.set("table", Json(spec.table));
  entry.set("row", Json(spec.row));
  entry.set("col", Json(spec.col));
  entry.set("status", Json(outcome.ok() ? "ok" : "failed"));
  entry.set("attempts", Json(outcome.attempts));
  entry.set("wall_seconds", Json(wall));
  if (outcome.ok()) {
    entry.set("summary", summary_to_json(outcome.summary));
  } else {
    entry.set("error", Json(to_string(outcome.error)));
    entry.set("message", Json(outcome.message));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++health_.cells;
    if (outcome.ok()) {
      ++health_.ok;
    } else {
      ++health_.failed;
    }
    if (outcome.attempts > 1) ++health_.retried;
    journal_[key] = entry;
    append_journal(entry);
    record(spec, key, outcome, wall);
  }

  if (!cfg_.quiet) {
    if (outcome.ok())
      std::fprintf(stderr, "[supervisor:%s] %s / %s: ok (%d attempt%s, %.1fs)\n",
                   cfg_.bench_name.c_str(), spec.row.c_str(), spec.col.c_str(),
                   outcome.attempts, outcome.attempts == 1 ? "" : "s", wall);
    else
      std::fprintf(stderr, "[supervisor:%s] %s / %s: FAILED(%s) after %d attempt%s: %s\n",
                   cfg_.bench_name.c_str(), spec.row.c_str(), spec.col.c_str(),
                   to_string(outcome.error), outcome.attempts,
                   outcome.attempts == 1 ? "" : "s", outcome.message.c_str());
  }
  return outcome;
}

void RunSupervisor::append_journal(const Json& entry) {
  journal_lines_.push_back(entry.dump());
  std::string content;
  for (const auto& line : journal_lines_) {
    content += line;
    content += '\n';
  }
  std::string err;
  if (!atomic_write_file(cfg_.journal_path, content, &err) && !cfg_.quiet)
    std::fprintf(stderr, "[supervisor:%s] journal write failed: %s\n",
                 cfg_.bench_name.c_str(), err.c_str());
}

void RunSupervisor::record(const CellSpec& spec, const std::string& key,
                           const CellOutcome& outcome, double wall_seconds) {
  Json cell = Json::object();
  cell.set("key", Json(key));
  cell.set("table", Json(spec.table));
  cell.set("row", Json(spec.row));
  cell.set("col", Json(spec.col));
  cell.set("status", Json(outcome.ok() ? "ok" : "failed"));
  cell.set("from_journal", Json(outcome.status == CellStatus::kOkFromJournal));
  cell.set("attempts", Json(outcome.attempts));
  cell.set("wall_seconds", Json(wall_seconds));
  if (outcome.ok()) {
    cell.set("summary", summary_to_json(outcome.summary));
  } else {
    cell.set("error", Json(to_string(outcome.error)));
    cell.set("message", Json(outcome.message));
  }
  // Schema 4 only: per-cell counter attribution. Off-mode artifacts stay
  // bit-identical to schema 2.
  if (trace::enabled()) {
    Json cell_trace = Json::object();
    cell_trace.set("counters", outcome.trace_counters);
    cell.set("trace", std::move(cell_trace));
  }
  records_.push_back(std::move(cell));
}

std::string RunSupervisor::format_cell(const CellOutcome& outcome) {
  if (!outcome.ok())
    return std::string("FAILED(") + to_string(outcome.error) + ")";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f / %.1f", 100 * outcome.summary.accuracy,
                100 * outcome.summary.macro_f1);
  return buf;
}

std::string RunSupervisor::format_cell(const CellOutcome& outcome,
                                       const std::string& ok_text) {
  if (!outcome.ok())
    return std::string("FAILED(") + to_string(outcome.error) + ")";
  return ok_text;
}

bool RunSupervisor::finalize() {
  // Observability contract: with tracing off the artifact is byte-identical
  // to the schema-2 form (no new fields anywhere); any active trace mode
  // upgrades it to schema 4 with a top-level `trace` section.
  const bool tracing = trace::enabled();
  Json doc = Json::object();
  doc.set("schema_version", Json(tracing ? 4 : 2));
  doc.set("bench", Json(cfg_.bench_name));

  Json config = Json::object();
  config.set("cell_timeout_s", Json(cfg_.cell_timeout_s));
  config.set("max_retries", Json(cfg_.max_retries));
  config.set("resume", Json(cfg_.resume));
  // Perf-trajectory attribution: the compute-pool width this run used.
  config.set("threads", Json(global_thread_count()));
  doc.set("config", config);

  Json health = Json::object();
  health.set("cells", Json(health_.cells));
  health.set("ok", Json(health_.ok));
  health.set("failed", Json(health_.failed));
  health.set("from_journal", Json(health_.from_journal));
  health.set("retried", Json(health_.retried));
  health.set("wall_seconds", Json(seconds_since(start_)));
  doc.set("health", health);

  Json cells = Json::array();
  for (const auto& cell : records_) cells.push(cell);
  doc.set("cells", cells);

  if (tracing) doc.set("trace", trace_section_json());

  std::string err;
  bool written = atomic_write_file(cfg_.json_path, doc.dump(2) + "\n", &err);

  bool chrome_written = true;
  if (!cfg_.trace_path.empty()) {
    std::string chrome_err;
    chrome_written = atomic_write_file(
        cfg_.trace_path, chrome_trace_json().dump(2) + "\n", &chrome_err);
    if (!chrome_written && !cfg_.quiet)
      std::printf("TRACE WRITE FAILED: %s\n", chrome_err.c_str());
    else if (!cfg_.quiet)
      std::printf("Chrome trace: %s (load via chrome://tracing or Perfetto)\n",
                  cfg_.trace_path.c_str());
  }
  written = written && chrome_written;

  if (!cfg_.quiet) {
    std::printf(
        "\nRun health: %d/%d cells ok (%d failed, %d from journal, %d retried)\n",
        health_.ok, health_.cells, health_.failed, health_.from_journal,
        health_.retried);
    for (const auto& cell : records_) {
      const Json* status = cell.find("status");
      if (status && status->string_or("") == "failed") {
        const Json* row = cell.find("row");
        const Json* col = cell.find("col");
        const Json* error = cell.find("error");
        const Json* message = cell.find("message");
        std::printf("  FAILED(%s) %s / %s: %s\n",
                    error ? error->string_or("?").c_str() : "?",
                    row ? row->string_or("?").c_str() : "?",
                    col ? col->string_or("?").c_str() : "?",
                    message ? message->string_or("").c_str() : "");
      }
    }
    if (written)
      std::printf("Artifacts: %s (journal: %s)\n", cfg_.json_path.c_str(),
                  cfg_.journal_path.c_str());
    else
      std::printf("ARTIFACT WRITE FAILED: %s\n", err.c_str());
  }
  return written;
}

}  // namespace sugar::core
