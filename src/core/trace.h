// Observability substrate: low-overhead, thread-aware tracing spans and
// hot-path counters. Lives in sugar_parallel (beside the thread pool) so
// every layer — net, dataset, ml, replearn, core — can emit without a
// dependency cycle; JSON assembly sits one layer up in core/trace_json.h.
//
// Three runtime modes, selected by SUGAR_TRACE (strict whole-string parse,
// same discipline as SUGAR_THREADS):
//
//   off      (default) nothing is recorded. The macro guard is a single
//            relaxed atomic load; spans and counters are observational
//            only, so kernel outputs are bit-identical to a build without
//            any instrumentation (gated by TraceIntegrationTest.
//            ModesNeverChangeResults).
//   summary  per-phase aggregates (call count, wall ns, thread-CPU ns)
//            and counters are kept; individual span events are not.
//   spans    everything in summary, plus a retained per-thread event
//            timeline (begin/duration/depth) suitable for a Chrome
//            trace_event dump (chrome://tracing, Perfetto).
//
// Threading: each thread owns a ThreadState behind its own mutex; spans
// never touch another thread's state, so emission is contention-free.
// Snapshot functions (phase_stats / counters_snapshot / events) lock each
// thread's state briefly and may run concurrently with emission — they are
// exercised under TSan by the tsan_stress TraceConcurrent tests.
//
// Determinism: nothing here feeds back into computation. Counters are
// plain monotonic accumulators; reset() zeroes values but never erases
// registry nodes, so `static Counter&` references cached by the
// SUGAR_TRACE_COUNT macro stay valid for the process lifetime.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sugar::core::trace {

enum class Mode { kOff, kSummary, kSpans };

/// Strict parse of a SUGAR_TRACE value: "off" | "summary" | "spans".
/// Anything else -> nullopt (caller warns and keeps the default).
std::optional<Mode> parse_mode(std::string_view text);

/// Current mode. Lazily initialized from SUGAR_TRACE on first query;
/// absent or malformed values fall back to kOff (with a stderr warning
/// for malformed ones, mirroring threads_from_env()).
Mode mode();

/// Override the mode at runtime (tests, --trace CLI). Safe at quiescent
/// points; spans already open keep recording under the old decision.
void set_mode(Mode m);

/// True when any recording is active. One relaxed atomic load — this is
/// the only cost the hot path pays in the default off mode.
bool enabled();

const char* mode_name(Mode m);

// ---------------------------------------------------------------------------
// Counters

/// A named monotonic counter. Stable address for the process lifetime;
/// add() is a relaxed fetch_add, so concurrent emitters never block.
class Counter {
 public:
  void add(std::uint64_t delta);
  [[nodiscard]] std::uint64_t value() const;

 private:
  friend struct Registry;
  friend Counter& counter(const std::string& name);
  friend void reset();
  Counter() = default;
  struct Impl;
  Impl* impl_ = nullptr;
};

/// Intern a counter by name. The first call creates it at zero; later
/// calls return the same object. Never invalidated (see reset()).
Counter& counter(const std::string& name);

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

/// All counters, sorted by name, with their current values. Includes
/// counters currently at zero once they have been interned.
std::vector<CounterValue> counters_snapshot();

// ---------------------------------------------------------------------------
// Spans

/// RAII scoped span. Construction is a no-op when !enabled(); otherwise
/// the destructor records wall + thread-CPU time into the per-phase
/// aggregate for `name`, and in kSpans mode appends a timeline event.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  explicit ScopedSpan(const std::string& name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void open(const char* name);
  bool active_ = false;
  std::uint32_t name_id_ = 0;
  std::uint64_t begin_ns_ = 0;
  std::uint64_t cpu_begin_ns_ = 0;
};

/// Per-phase aggregate: every span with the same name, across threads.
struct PhaseStat {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
};

/// One retained timeline event (kSpans mode only).
struct SpanEvent {
  std::string name;
  std::uint64_t thread = 0;    ///< stable per-thread ordinal (0 = first seen)
  std::string thread_label;    ///< "" or e.g. "pool-worker-3"
  std::uint64_t begin_ns = 0;  ///< relative to the registry epoch
  std::uint64_t dur_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint32_t depth = 0;     ///< nesting depth at emission (0 = top level)
};

/// Aggregates per span name, sorted by name.
std::vector<PhaseStat> phase_stats();

/// Retained events from every thread, sorted by (thread, begin_ns).
/// Empty unless mode was kSpans while the spans closed.
std::vector<SpanEvent> events();

/// Events discarded after a thread hit its retention cap.
std::uint64_t dropped_events();

/// Spans currently open across all threads (0 after balanced RAII use).
std::size_t open_span_count();

/// Label the calling thread in the merged timeline ("pool-worker-2", ...).
void set_thread_label(const std::string& label);

/// Zero all counters and aggregates, drop retained events, and restart
/// the epoch clock. Counter addresses and interned names survive. Spans
/// still open keep their begin timestamps against the OLD epoch — call
/// only at quiescent points (cell boundaries, test SetUp).
void reset();

}  // namespace sugar::core::trace

// ---------------------------------------------------------------------------
// Emission macros. SUGAR_TRACE_SPAN declares a block-scoped RAII span;
// SUGAR_TRACE_COUNT bumps a counter, interning it once per call site via a
// function-local static (std::map nodes are never erased, so the reference
// cannot dangle). Because the first call names the call site's counter for
// the rest of the process, `name` must be a string literal: the macro
// pastes it after "" so anything else fails to compile. Both cost one
// relaxed load when tracing is off.
#define SUGAR_TRACE_CAT2(a, b) a##b
#define SUGAR_TRACE_CAT(a, b) SUGAR_TRACE_CAT2(a, b)
#define SUGAR_TRACE_SPAN(name)                                    \
  ::sugar::core::trace::ScopedSpan SUGAR_TRACE_CAT(sugar_trace_,  \
                                                   __LINE__) {    \
    name                                                          \
  }
#define SUGAR_TRACE_COUNT(name, delta)                                    \
  do {                                                                    \
    if (::sugar::core::trace::enabled()) {                                \
      static ::sugar::core::trace::Counter& SUGAR_TRACE_CAT(              \
          sugar_trace_ctr_, __LINE__) = ::sugar::core::trace::counter(    \
          "" name);                                                       \
      SUGAR_TRACE_CAT(sugar_trace_ctr_, __LINE__)                         \
          .add(static_cast<std::uint64_t>(delta));                        \
    }                                                                     \
  } while (false)
