// Validates a BENCH_<table>.json artifact: parses it with the same strict
// Json parser the supervisor writes with and checks the schema essentials.
// The bench_smoke ctest label chains this after each bench run, so a crash,
// a torn write, or malformed output fails `ctest -L bench_smoke`.
//
// Beyond the default artifact check it knows three more modes:
//
//   json_check --chrome <trace.json>      validate a chrome://tracing dump
//   json_check --normalize <artifact>     print the artifact with volatile
//                                         (timing/trace/config-width) keys
//                                         stripped, for golden comparison
//   json_check --golden <artifact> <ref>  normalize both and require they
//                                         match byte-for-byte
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/artifact.h"

using sugar::core::Json;

namespace {

bool fail(const char* path, const char* why) {
  std::fprintf(stderr, "json_check: %s: %s\n", path, why);
  return false;
}

bool load(const char* path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail(path, "cannot open");
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

// Keys stripped by --normalize: anything that legitimately varies between
// two correct runs of the same bench (wall timings, speedups, machine
// width, and the whole observability section). schema_version is
// volatile too because SUGAR_TRACE flips it between 2 and 4.
constexpr const char* kVolatileKeys[] = {
    "schema_version", "trace",        "wall_seconds",
    "train_seconds",  "test_seconds", "seq_seconds",
    "par_seconds",    "speedup",      "threads",
    "cpu_seconds",
};

bool is_volatile_key(const std::string& key) {
  for (const char* k : kVolatileKeys)
    if (key == k) return true;
  return false;
}

Json normalize(const Json& j) {
  if (j.is_object()) {
    Json out = Json::object();
    for (const auto& [key, value] : j.members())
      if (!is_volatile_key(key)) out.set(key, normalize(value));
    return out;
  }
  if (j.is_array()) {
    Json out = Json::array();
    for (const Json& item : j.items()) out.push(normalize(item));
    return out;
  }
  return j;
}

/// Validates the schema-4 `trace` section written by trace_section_json():
/// mode, per-phase aggregates, counters and the dropped-events tally. Every
/// numeric field must be a real JSON number — core::Json serializes NaN and
/// Inf as null, so a trace contaminated by a non-finite timing value fails
/// here instead of slipping into the artifact record.
bool check_trace_section(const char* path, const Json& trace) {
  if (!trace.is_object()) return fail(path, "trace is not an object");
  const Json* mode = trace.find("mode");
  const std::string& m = mode ? mode->string_or("") : "";
  if (m != "summary" && m != "spans")
    return fail(path, "trace.mode is neither summary nor spans");
  const Json* phases = trace.find("phases");
  if (!phases || !phases->is_array()) return fail(path, "trace missing phases array");
  for (const Json& p : phases->items()) {
    const Json* name = p.find("name");
    if (!name || name->string_or("").empty())
      return fail(path, "trace phase missing name");
    for (const char* field : {"count", "wall_ms", "cpu_ms"}) {
      const Json* v = p.find(field);
      if (!v || v->type() != Json::Type::kNumber || v->number_or(-1) < 0)
        return fail(path, "trace phase missing non-negative numeric field");
    }
  }
  const Json* counters = trace.find("counters");
  if (!counters || !counters->is_array())
    return fail(path, "trace missing counters array");
  for (const Json& c : counters->items()) {
    const Json* name = c.find("name");
    if (!name || name->string_or("").empty())
      return fail(path, "trace counter missing name");
    const Json* v = c.find("value");
    if (!v || v->type() != Json::Type::kNumber || v->number_or(-1) < 0)
      return fail(path, "trace counter missing non-negative numeric value");
  }
  const Json* dropped = trace.find("dropped_events");
  if (!dropped || dropped->type() != Json::Type::kNumber ||
      dropped->number_or(-1) < 0)
    return fail(path, "trace missing numeric dropped_events");
  return true;
}

/// Requires every member of `obj` to be a non-negative JSON number.
bool all_nonneg_numbers(const char* path, const Json& obj, const char* what) {
  if (!obj.is_object()) return fail(path, "serve section field is not an object");
  for (const auto& [key, value] : obj.members()) {
    if (value.type() != Json::Type::kNumber || value.number_or(-1) < 0) {
      std::fprintf(stderr, "json_check: %s: serve %s has a non-numeric or "
                           "negative field '%s'\n", path, what, key.c_str());
      return false;
    }
  }
  return true;
}

/// A counter timeline: an array of counter objects where every field is a
/// non-negative number and monotone non-decreasing across entries — the
/// engine's counters are contractually monotone, so a decrease means torn
/// stats or a reset bug. The crash-recovery cells reuse this across the
/// crash boundary: counters at the kill point must be <= the final ones,
/// proving restore never rewinds accounting.
bool check_counter_timeline(const char* path, const Json& snaps,
                            const char* what) {
  if (!snaps.is_array()) {
    std::fprintf(stderr, "json_check: %s: %s is not an array\n", path, what);
    return false;
  }
  const Json* prev = nullptr;
  for (const Json& snap : snaps.items()) {
    if (!all_nonneg_numbers(path, snap, what)) return false;
    if (prev) {
      for (const auto& [key, value] : prev->members()) {
        const Json* later = snap.find(key);
        if (!later || later->number_or(-1) < value.number_or(0)) {
          std::fprintf(stderr,
                       "json_check: %s: %s counter '%s' is not monotone\n",
                       path, what, key.c_str());
          return false;
        }
      }
    }
    prev = &snap;
  }
  return true;
}

/// The serve cell extra written by bench_serve: counters/gauges/latency
/// (all non-negative numbers) plus the `snapshots` counter timeline.
bool check_serve_section(const char* path, const Json& serve) {
  if (!serve.is_object()) return fail(path, "serve extra is not an object");
  for (const char* section : {"counters", "gauges", "latency"}) {
    const Json* s = serve.find(section);
    if (!s) return fail(path, "serve extra missing counters/gauges/latency");
    if (!all_nonneg_numbers(path, *s, section)) return false;
  }
  for (const char* field : {"count", "p50_us", "p90_us", "p99_us", "p999_us"}) {
    const Json* v = serve.find("latency")->find(field);
    if (!v || v->type() != Json::Type::kNumber)
      return fail(path, "serve latency missing a percentile field");
  }
  const Json* snaps = serve.find("snapshots");
  if (!snaps) return fail(path, "serve extra missing snapshots array");
  return check_counter_timeline(path, *snaps, "serve snapshot");
}

/// RecoveryStats: numeric accounting fields plus the last_error string.
bool check_recovery_section(const char* path, const Json& recovery) {
  if (!recovery.is_object())
    return fail(path, "recovery section is not an object");
  for (const char* field : {"snapshots_saved", "save_failures",
                            "snapshots_restored", "restore_failures",
                            "cold_starts"}) {
    const Json* v = recovery.find(field);
    if (!v || v->type() != Json::Type::kNumber || v->number_or(-1) < 0)
      return fail(path, "recovery section missing a non-negative counter");
  }
  const Json* last = recovery.find("last_error");
  if (!last || last->type() != Json::Type::kString)
    return fail(path, "recovery section missing last_error string");
  return true;
}

/// The crash_recovery cell extra: the kill-restore-replay run must report
/// bit-identical verdicts and counters (`identical` is the bench's own
/// comparison — a false here is a determinism bug, so the artifact check
/// fails hard), and the two-entry counter timeline spanning the crash
/// boundary must be monotone.
bool check_crash_section(const char* path, const Json& crash) {
  if (!crash.is_object())
    return fail(path, "crash_recovery extra is not an object");
  const Json* kill = crash.find("kill_tick");
  if (!kill || kill->type() != Json::Type::kNumber || kill->number_or(-1) < 0)
    return fail(path, "crash_recovery missing non-negative kill_tick");
  for (const char* field : {"save_ok", "restore_ok", "counters_identical",
                            "verdicts_identical", "identical"}) {
    const Json* v = crash.find(field);
    if (!v || v->type() != Json::Type::kBool)
      return fail(path, "crash_recovery missing a boolean assertion field");
    if (!v->bool_or(false)) {
      std::fprintf(stderr,
                   "json_check: %s: crash_recovery '%s' is false — restored "
                   "run diverged from the uninterrupted one\n", path, field);
      return false;
    }
  }
  const Json* recovery = crash.find("recovery");
  if (!recovery || !check_recovery_section(path, *recovery)) return false;
  const Json* snaps = crash.find("snapshots");
  if (!snaps) return fail(path, "crash_recovery missing snapshots timeline");
  if (!check_counter_timeline(path, *snaps, "crash_recovery")) return false;
  if (snaps->items().size() < 2)
    return fail(path, "crash_recovery timeline must span the crash boundary");
  return true;
}

/// Circuit-breaker section: state, monotone counters and a transition log
/// that must be a legal walk of the breaker state machine —
/// closed→open, open→half_open, half_open→open, half_open→closed — starting
/// from closed, with each edge departing the state the previous one entered
/// and call ordinals non-decreasing.
bool check_breaker_section(const char* path, const Json& breaker) {
  if (!breaker.is_object())
    return fail(path, "breaker section is not an object");
  auto legal_state = [](const std::string& s) {
    return s == "closed" || s == "open" || s == "half_open";
  };
  const Json* state = breaker.find("state");
  if (!state || !legal_state(state->string_or("")))
    return fail(path, "breaker state is not closed/open/half_open");
  const Json* counters = breaker.find("counters");
  if (!counters || !all_nonneg_numbers(path, *counters, "breaker counters"))
    return false;
  const Json* transitions = breaker.find("transitions");
  if (!transitions || !transitions->is_array())
    return fail(path, "breaker missing transitions array");
  std::string at = "closed";
  double last_call = 0;
  for (const Json& t : transitions->items()) {
    const std::string& from = t.find("from") ? t.find("from")->string_or("") : "";
    const std::string& to = t.find("to") ? t.find("to")->string_or("") : "";
    const Json* call = t.find("at_call");
    if (!legal_state(from) || !legal_state(to) || !call ||
        call->type() != Json::Type::kNumber)
      return fail(path, "breaker transition is malformed");
    const bool legal_edge = (from == "closed" && to == "open") ||
                            (from == "open" && to == "half_open") ||
                            (from == "half_open" && to == "open") ||
                            (from == "half_open" && to == "closed");
    if (!legal_edge) {
      std::fprintf(stderr,
                   "json_check: %s: illegal breaker transition %s -> %s\n",
                   path, from.c_str(), to.c_str());
      return false;
    }
    if (from != at) {
      std::fprintf(stderr,
                   "json_check: %s: breaker transition departs '%s' but the "
                   "machine was in '%s'\n", path, from.c_str(), at.c_str());
      return false;
    }
    if (call->number_or(-1) < last_call)
      return fail(path, "breaker transition call ordinals decrease");
    at = to;
    last_call = call->number_or(0);
  }
  return true;
}

/// The chaos_cell extra: per-mode deterministic fault injection. Every mode
/// carries the injector's draw/fire accounting (fired <= draws, probability
/// in [0,1]) and the engine stats; the breaker mode must include a legal
/// breaker section, and the io mode must prove a post-storm snapshot still
/// restores.
bool check_chaos_cell_section(const char* path, const Json& cell) {
  if (!cell.is_object()) return fail(path, "chaos_cell extra is not an object");
  const Json* mode = cell.find("mode");
  const std::string& m = mode ? mode->string_or("") : "";
  if (m != "breaker" && m != "alloc" && m != "io")
    return fail(path, "chaos_cell mode is not breaker/alloc/io");
  const Json* chaos = cell.find("chaos");
  if (!chaos || !chaos->is_object())
    return fail(path, "chaos_cell missing chaos object");
  const Json* sites = chaos->find("sites");
  if (!sites || !sites->is_array())
    return fail(path, "chaos_cell missing chaos.sites array");
  for (const Json& site : sites->items()) {
    const Json* name = site.find("site");
    if (!name || name->string_or("").empty())
      return fail(path, "chaos site missing name");
    const Json* p = site.find("probability");
    if (!p || p->type() != Json::Type::kNumber || p->number_or(-1) < 0 ||
        p->number_or(2) > 1)
      return fail(path, "chaos site probability outside [0, 1]");
    const Json* draws = site.find("draws");
    const Json* fired = site.find("fired");
    if (!draws || !fired || draws->type() != Json::Type::kNumber ||
        fired->type() != Json::Type::kNumber ||
        fired->number_or(-1) > draws->number_or(0))
      return fail(path, "chaos site fired exceeds draws");
  }
  const Json* stats = cell.find("stats");
  if (!stats || !stats->is_object())
    return fail(path, "chaos_cell missing stats object");
  for (const char* section : {"counters", "gauges"}) {
    const Json* s = stats->find(section);
    if (!s || !all_nonneg_numbers(path, *s, section)) return false;
  }
  if (m == "breaker") {
    const Json* breaker = cell.find("breaker");
    if (!breaker) return fail(path, "breaker chaos cell missing breaker section");
    if (!check_breaker_section(path, *breaker)) return false;
  }
  if (m == "io") {
    const Json* recovery = cell.find("recovery");
    if (!recovery || !check_recovery_section(path, *recovery)) return false;
    const Json* restored = cell.find("final_restore_ok");
    if (!restored || !restored->bool_or(false))
      return fail(path, "io chaos cell: post-storm snapshot did not restore");
  }
  return true;
}

/// The out-of-core cell extra written by `bench_table8_shallow --scale`
/// (the core::run_ooc_scale payload): streamed-pipeline evidence. Hard
/// requirements: a positive scale and throughput, a cache hit rate inside
/// [0, 1], a non-empty digest and a positive peak RSS — a zero or missing
/// field means a stage was skipped or the accounting is torn.
bool check_ooc_section(const char* path, const Json& ooc) {
  if (!ooc.is_object()) return fail(path, "ooc extra is not an object");
  for (const char* field : {"scale", "rows_generated", "rows_kept",
                            "train_rows", "test_rows", "rows_per_sec",
                            "fit_rows_per_sec", "store_bytes",
                            "peak_rss_bytes"}) {
    const Json* v = ooc.find(field);
    if (!v || v->type() != Json::Type::kNumber || v->number_or(0) <= 0) {
      std::fprintf(stderr,
                   "json_check: %s: ooc extra field '%s' missing or not a "
                   "positive number\n", path, field);
      return false;
    }
  }
  const Json* hit = ooc.find("page_cache_hit_rate");
  if (!hit || hit->type() != Json::Type::kNumber || hit->number_or(-1) < 0 ||
      hit->number_or(2) > 1)
    return fail(path, "ooc page_cache_hit_rate outside [0, 1]");
  for (const char* field : {"accuracy", "macro_f1"}) {
    const Json* v = ooc.find(field);
    if (!v || v->type() != Json::Type::kNumber || v->number_or(-1) < 0 ||
        v->number_or(2) > 1)
      return fail(path, "ooc accuracy/macro_f1 outside [0, 1]");
  }
  const Json* digest = ooc.find("digest");
  if (!digest || digest->string_or("").empty())
    return fail(path, "ooc extra missing digest");
  return true;
}

/// The drift/transfer cell extra (`extra.drift`): provenance of the
/// train/test distribution pair. All four fields are required non-negative
/// integers — a missing one means the cell can't be attributed to a
/// distribution shift.
bool check_drift_section(const char* path, const Json& drift) {
  if (!drift.is_object()) return fail(path, "drift extra is not an object");
  for (const char* field : {"train_epoch", "test_epoch", "train_family",
                            "test_family"}) {
    const Json* v = drift.find(field);
    if (!v || v->type() != Json::Type::kNumber || v->number_or(-1) < 0)
      return fail(path, "drift extra missing a non-negative numeric field");
  }
  return true;
}

/// The assembled drift curve (`extra.drift_curve`): per-model arrays of
/// {epoch, accuracy} points with strictly ascending epochs and accuracies
/// inside [0, 1]. An empty series is legal (every cell of that model
/// failed) but a malformed point is not.
bool check_drift_curve_section(const char* path, const Json& curve) {
  if (!curve.is_object()) return fail(path, "drift_curve is not an object");
  if (curve.members().empty()) return fail(path, "drift_curve has no models");
  for (const auto& [model, series] : curve.members()) {
    if (!series.is_array()) {
      std::fprintf(stderr, "json_check: %s: drift_curve series '%s' is not an "
                           "array\n", path, model.c_str());
      return false;
    }
    double last_epoch = -1;
    for (const Json& point : series.items()) {
      const Json* epoch = point.find("epoch");
      const Json* acc = point.find("accuracy");
      if (!epoch || epoch->type() != Json::Type::kNumber ||
          epoch->number_or(-1) < 0 || epoch->number_or(-1) <= last_epoch)
        return fail(path, "drift_curve epochs are not strictly ascending");
      if (!acc || acc->type() != Json::Type::kNumber ||
          acc->number_or(-1) < 0 || acc->number_or(2) > 1)
        return fail(path, "drift_curve accuracy outside [0, 1]");
      last_epoch = epoch->number_or(0);
    }
  }
  return true;
}

/// The perturbation cell extra (`extra.perturb`): the jitter magnitudes,
/// whether the clean baseline completed, and — when it did — the baseline
/// accuracy plus the signed accuracy delta against it.
bool check_perturb_section(const char* path, const Json& perturb) {
  if (!perturb.is_object()) return fail(path, "perturb extra is not an object");
  for (const char* field : {"ttl", "window", "mss"}) {
    const Json* v = perturb.find(field);
    if (!v || v->type() != Json::Type::kNumber || v->number_or(-1) < 0)
      return fail(path, "perturb extra missing a non-negative jitter field");
  }
  const Json* ok = perturb.find("baseline_ok");
  if (!ok || ok->type() != Json::Type::kBool)
    return fail(path, "perturb extra missing baseline_ok bool");
  if (ok->bool_or(false)) {
    const Json* base = perturb.find("baseline_accuracy");
    if (!base || base->type() != Json::Type::kNumber ||
        base->number_or(-1) < 0 || base->number_or(2) > 1)
      return fail(path, "perturb baseline_accuracy outside [0, 1]");
    const Json* delta = perturb.find("accuracy_delta");
    if (!delta || delta->type() != Json::Type::kNumber ||
        delta->number_or(-2) < -1 || delta->number_or(2) > 1)
      return fail(path, "perturb accuracy_delta outside [-1, 1]");
  }
  return true;
}

/// Per-cell `trace` object (counter deltas attributed to the cell).
bool check_cell_trace(const char* path, const Json& cell_trace) {
  if (!cell_trace.is_object()) return fail(path, "cell trace is not an object");
  const Json* counters = cell_trace.find("counters");
  if (!counters || !counters->is_array())
    return fail(path, "cell trace missing counters array");
  for (const Json& c : counters->items()) {
    const Json* name = c.find("name");
    if (!name || name->string_or("").empty())
      return fail(path, "cell trace counter missing name");
    const Json* delta = c.find("delta");
    if (!delta || delta->type() != Json::Type::kNumber ||
        delta->number_or(-1) < 0)
      return fail(path, "cell trace counter missing non-negative numeric delta");
  }
  return true;
}

bool check(const char* path) {
  std::string text;
  if (!load(path, text)) return false;

  auto doc = Json::parse(text);
  if (!doc) return fail(path, "not valid JSON");
  if (!doc->is_object()) return fail(path, "top level is not an object");

  const Json* schema = doc->find("schema_version");
  if (!schema || schema->number_or(0) < 1)
    return fail(path, "missing schema_version");
  const bool v2 = schema->number_or(0) >= 2;
  const bool v4 = schema->number_or(0) >= 4;
  const Json* bench = doc->find("bench");
  if (!bench || bench->string_or("").empty()) return fail(path, "missing bench");

  const Json* health = doc->find("health");
  if (!health || !health->is_object()) return fail(path, "missing health object");
  const Json* cells = doc->find("cells");
  if (!cells || !cells->is_array()) return fail(path, "missing cells array");

  if (v2) {
    // Schema 2: the run's compute-pool width must be attributable.
    const Json* config = doc->find("config");
    if (!config || !config->is_object()) return fail(path, "missing config object");
    const Json* threads = config->find("threads");
    if (!threads || threads->number_or(0) < 1)
      return fail(path, "config.threads missing or < 1");
  }

  if (v4) {
    // Schema 4 is only written when tracing was active, so the trace
    // section is mandatory, not optional.
    const Json* trace = doc->find("trace");
    if (!trace) return fail(path, "schema 4 missing trace section");
    if (!check_trace_section(path, *trace)) return false;
  } else if (doc->find("trace")) {
    return fail(path, "trace section present but schema_version < 4");
  }

  std::size_t declared =
      static_cast<std::size_t>(health->find("cells")
                                   ? health->find("cells")->number_or(0)
                                   : 0);
  if (declared != cells->items().size())
    return fail(path, "health.cells disagrees with cells[] length");

  for (const Json& cell : cells->items()) {
    const Json* status = cell.find("status");
    if (!status) return fail(path, "cell missing status");
    const std::string& s = status->string_or("");
    if (s == "ok") {
      if (!cell.find("summary")) return fail(path, "ok cell missing summary");
    } else if (s == "failed") {
      if (!cell.find("error")) return fail(path, "failed cell missing error");
    } else {
      return fail(path, "cell status is neither ok nor failed");
    }
    if (v2) {
      const Json* wall = cell.find("wall_seconds");
      if (!wall || wall->type() != Json::Type::kNumber || wall->number_or(-1) < 0)
        return fail(path, "cell missing non-negative wall_seconds");
    }
    if (const Json* cell_trace = cell.find("trace")) {
      if (!v4) return fail(path, "cell trace present but schema_version < 4");
      if (!check_cell_trace(path, *cell_trace)) return false;
    }
    if (const Json* summary = cell.find("summary")) {
      // A score needs rows to score: a positive accuracy or F1 over zero
      // (or unreported) test rows means the counts were never filled.
      const Json* n_test = summary->find("n_test");
      if (!n_test || n_test->number_or(0) <= 0)
        for (const char* score : {"accuracy", "macro_f1", "micro_f1"})
          if (const Json* v = summary->find(score); v && v->number_or(0) > 0)
            return fail(path, "cell reports a score over zero test rows");
      const Json* extra = summary->find("extra");
      if (const Json* serve = extra ? extra->find("serve") : nullptr) {
        if (!check_serve_section(path, *serve)) return false;
        // Serve cells score single-label verdicts, where micro-F1 equals
        // accuracy: a mismatch means the F1 fields were never computed.
        const Json* acc = summary->find("accuracy");
        const Json* micro = summary->find("micro_f1");
        if (!acc || !micro ||
            std::fabs(micro->number_or(-1) - acc->number_or(-2)) > 1e-12)
          return fail(path, "serve cell micro_f1 differs from its accuracy");
      }
      if (const Json* crash = extra ? extra->find("crash_recovery") : nullptr)
        if (!check_crash_section(path, *crash)) return false;
      if (const Json* chaos = extra ? extra->find("chaos_cell") : nullptr)
        if (!check_chaos_cell_section(path, *chaos)) return false;
      if (const Json* ooc = extra ? extra->find("ooc") : nullptr)
        if (!check_ooc_section(path, *ooc)) return false;
      if (const Json* drift = extra ? extra->find("drift") : nullptr)
        if (!check_drift_section(path, *drift)) return false;
      if (const Json* curve = extra ? extra->find("drift_curve") : nullptr)
        if (!check_drift_curve_section(path, *curve)) return false;
      if (const Json* perturb = extra ? extra->find("perturb") : nullptr)
        if (!check_perturb_section(path, *perturb)) return false;
    }
  }
  return true;
}

/// Chrome trace_event dumps (`--trace <path>`): the {traceEvents: [...]}
/// wrapper with at least one complete ("X") event, every event carrying
/// the fields chrome://tracing / Perfetto require to place it.
bool check_chrome(const char* path) {
  std::string text;
  if (!load(path, text)) return false;
  auto doc = Json::parse(text);
  if (!doc) return fail(path, "not valid JSON");
  if (!doc->is_object()) return fail(path, "top level is not an object");
  const Json* events = doc->find("traceEvents");
  if (!events || !events->is_array())
    return fail(path, "missing traceEvents array");
  std::size_t complete = 0;
  for (const Json& e : events->items()) {
    if (!e.is_object()) return fail(path, "trace event is not an object");
    const Json* name = e.find("name");
    if (!name || name->string_or("").empty())
      return fail(path, "trace event missing name");
    const Json* ph = e.find("ph");
    const std::string& phase = ph ? ph->string_or("") : "";
    if (phase.empty()) return fail(path, "trace event missing ph");
    for (const char* field : {"pid", "tid"}) {
      const Json* v = e.find(field);
      if (!v || v->type() != Json::Type::kNumber)
        return fail(path, "trace event missing numeric pid/tid");
    }
    if (phase == "X") {
      ++complete;
      for (const char* field : {"ts", "dur"}) {
        const Json* v = e.find(field);
        if (!v || v->type() != Json::Type::kNumber || v->number_or(-1) < 0)
          return fail(path, "complete event missing non-negative ts/dur");
      }
    }
  }
  if (complete == 0) return fail(path, "no complete (ph=X) events");
  return true;
}

bool normalize_file(const char* path, std::string& out) {
  std::string text;
  if (!load(path, text)) return false;
  auto doc = Json::parse(text);
  if (!doc) return fail(path, "not valid JSON");
  out = normalize(*doc).dump(2);
  out += '\n';
  return true;
}

bool check_golden(const char* artifact, const char* golden) {
  std::string got, want;
  if (!normalize_file(artifact, got)) return false;
  // The golden file is stored already normalized, but normalize it again so
  // regenerating it from a raw artifact also works.
  if (!normalize_file(golden, want)) return false;
  if (got == want) return true;
  // Point at the first differing line so a drifted golden is debuggable.
  std::istringstream a(got), b(want);
  std::string la, lb;
  std::size_t line = 0;
  while (true) {
    ++line;
    const bool ea = !std::getline(a, la);
    const bool eb = !std::getline(b, lb);
    if (ea && eb) break;
    if (ea != eb || la != lb) {
      std::fprintf(stderr,
                   "json_check: %s: normalized artifact diverges from golden "
                   "%s at line %zu\n  artifact: %s\n  golden:   %s\n",
                   artifact, golden, line, ea ? "<eof>" : la.c_str(),
                   eb ? "<eof>" : lb.c_str());
      return false;
    }
  }
  return false;  // unreachable: equal streams imply got == want
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--chrome") == 0) {
    if (!check_chrome(argv[2])) return 1;
    std::printf("json_check: %s ok (chrome trace)\n", argv[2]);
    return 0;
  }
  if (argc == 3 && std::strcmp(argv[1], "--normalize") == 0) {
    std::string out;
    if (!normalize_file(argv[2], out)) return 1;
    std::fwrite(out.data(), 1, out.size(), stdout);
    return 0;
  }
  if (argc == 4 && std::strcmp(argv[1], "--golden") == 0) {
    if (!check_golden(argv[2], argv[3])) return 1;
    std::printf("json_check: %s matches golden %s\n", argv[2], argv[3]);
    return 0;
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: json_check <BENCH_artifact.json>\n"
                 "       json_check --chrome <trace.json>\n"
                 "       json_check --normalize <artifact.json>\n"
                 "       json_check --golden <artifact.json> <golden.json>\n");
    return 2;
  }
  if (!check(argv[1])) return 1;
  std::printf("json_check: %s ok\n", argv[1]);
  return 0;
}
