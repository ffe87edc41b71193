// Property tests for the observability substrate (core/trace.h): strict
// mode parsing, zero-effect in off mode, per-phase aggregation, retained
// span timelines, and — the core property — that fuzzed randomized span
// trees emitted from pool workers at several thread counts always produce
// a well-formed timeline: balanced open/close, nested-or-disjoint
// same-thread intervals, and depths consistent with containment.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/threadpool.h"
#include "core/trace.h"

namespace sugar::core::trace {
namespace {

/// Every trace test starts from a clean registry and leaves the process in
/// the default off mode, so tests cannot leak trace state into each other
/// (or into the supervisor tests that share this binary).
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_mode(Mode::kOff);
    reset();
  }
  void TearDown() override {
    set_mode(Mode::kOff);
    reset();
  }

  static const PhaseStat* find_phase(const std::vector<PhaseStat>& stats,
                                     const std::string& name) {
    for (const auto& s : stats)
      if (s.name == name) return &s;
    return nullptr;
  }
};

TEST_F(TraceTest, ParseModeIsStrict) {
  ASSERT_TRUE(parse_mode("off").has_value());
  EXPECT_EQ(*parse_mode("off"), Mode::kOff);
  ASSERT_TRUE(parse_mode("summary").has_value());
  EXPECT_EQ(*parse_mode("summary"), Mode::kSummary);
  ASSERT_TRUE(parse_mode("spans").has_value());
  EXPECT_EQ(*parse_mode("spans"), Mode::kSpans);
  for (const char* bad :
       {"", "Off", "OFF", "span", "spanss", " spans", "spans ", "1", "on"}) {
    EXPECT_FALSE(parse_mode(bad).has_value()) << "value: '" << bad << "'";
  }
}

TEST_F(TraceTest, ModeNames) {
  EXPECT_STREQ(mode_name(Mode::kOff), "off");
  EXPECT_STREQ(mode_name(Mode::kSummary), "summary");
  EXPECT_STREQ(mode_name(Mode::kSpans), "spans");
}

TEST_F(TraceTest, OffModeRecordsNothing) {
  ASSERT_FALSE(enabled());
  {
    SUGAR_TRACE_SPAN("test.off_span");
    SUGAR_TRACE_COUNT("test.off_counter", 7);
  }
  EXPECT_EQ(find_phase(phase_stats(), "test.off_span"), nullptr);
  EXPECT_TRUE(events().empty());
  // The counter macro never even interned the name.
  for (const auto& c : counters_snapshot())
    EXPECT_NE(c.name, "test.off_counter");
}

TEST_F(TraceTest, SummaryAggregatesWithoutEvents) {
  set_mode(Mode::kSummary);
  ASSERT_TRUE(enabled());
  for (int i = 0; i < 3; ++i) {
    SUGAR_TRACE_SPAN("test.summary_span");
    SUGAR_TRACE_COUNT("test.summary_counter", 2);
  }
  const auto stats = phase_stats();
  const PhaseStat* s = find_phase(stats, "test.summary_span");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, 3u);
  EXPECT_TRUE(events().empty()) << "summary mode must not retain events";
  EXPECT_EQ(counter("test.summary_counter").value(), 6u);
}

TEST_F(TraceTest, SpansRetainNestedTimeline) {
  set_mode(Mode::kSpans);
  {
    SUGAR_TRACE_SPAN("test.outer");
    {
      SUGAR_TRACE_SPAN("test.inner");
    }
    {
      SUGAR_TRACE_SPAN("test.inner");
    }
  }
  EXPECT_EQ(open_span_count(), 0u);
  auto evs = events();
  ASSERT_EQ(evs.size(), 3u);
  std::map<std::string, int> count;
  for (const auto& e : evs) ++count[e.name];
  EXPECT_EQ(count["test.outer"], 1);
  EXPECT_EQ(count["test.inner"], 2);
  for (const auto& e : evs) {
    if (e.name == "test.outer")
      EXPECT_EQ(e.depth, 0u);
    else
      EXPECT_EQ(e.depth, 1u);
  }
  // The outer span's interval contains both inner ones.
  const auto& outer = *std::find_if(evs.begin(), evs.end(), [](const SpanEvent& e) {
    return e.name == "test.outer";
  });
  for (const auto& e : evs) {
    if (e.name != "test.inner") continue;
    EXPECT_GE(e.begin_ns, outer.begin_ns);
    EXPECT_LE(e.begin_ns + e.dur_ns, outer.begin_ns + outer.dur_ns);
  }
}

TEST_F(TraceTest, CountersAreMonotoneWithStableAddresses) {
  set_mode(Mode::kSummary);
  Counter& c = counter("test.stable");
  EXPECT_EQ(c.value(), 0u);
  std::uint64_t prev = 0;
  for (int i = 1; i <= 10; ++i) {
    c.add(static_cast<std::uint64_t>(i));
    EXPECT_GT(c.value(), prev) << "counter must be strictly monotone under add";
    prev = c.value();
  }
  EXPECT_EQ(c.value(), 55u);
  // reset() zeroes the value but keeps the registry node: the same
  // reference keeps working (this is what the macro's static caching
  // relies on).
  reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&counter("test.stable"), &c);
  c.add(3);
  EXPECT_EQ(counter("test.stable").value(), 3u);
}

TEST_F(TraceTest, SnapshotIsSortedAndKeepsZeroCounters) {
  set_mode(Mode::kSummary);
  counter("test.zzz").add(1);
  counter("test.aaa");  // interned but never bumped
  auto snap = counters_snapshot();
  EXPECT_TRUE(std::is_sorted(
      snap.begin(), snap.end(),
      [](const CounterValue& a, const CounterValue& b) { return a.name < b.name; }));
  bool saw_zero = false;
  for (const auto& c : snap)
    if (c.name == "test.aaa") {
      saw_zero = true;
      EXPECT_EQ(c.value, 0u);
    }
  EXPECT_TRUE(saw_zero);
}

TEST_F(TraceTest, RetentionCapCountsDroppedEvents) {
  set_mode(Mode::kSpans);
  // One thread's cap is 65536 retained events; overshoot it.
  constexpr std::size_t kEmit = 70'000;
  for (std::size_t i = 0; i < kEmit; ++i) {
    SUGAR_TRACE_SPAN("test.capped");
  }
  EXPECT_GE(dropped_events(), kEmit - 65'536);
  const auto stats = phase_stats();
  const PhaseStat* s = find_phase(stats, "test.capped");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->count, kEmit) << "aggregates must keep counting past the cap";
  std::size_t retained = 0;
  for (const auto& e : events())
    if (e.name == "test.capped") ++retained;
  EXPECT_LE(retained, 65'536u);
  EXPECT_GT(retained, 0u);
}

TEST_F(TraceTest, ResetClearsEventsAggregatesAndEpoch) {
  set_mode(Mode::kSpans);
  {
    SUGAR_TRACE_SPAN("test.pre_reset");
  }
  ASSERT_FALSE(events().empty());
  reset();
  EXPECT_TRUE(events().empty());
  EXPECT_EQ(find_phase(phase_stats(), "test.pre_reset"), nullptr);
  EXPECT_EQ(dropped_events(), 0u);
  {
    SUGAR_TRACE_SPAN("test.post_reset");
  }
  auto evs = events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].name, "test.post_reset");
}

TEST_F(TraceTest, ThreadLabelsAppearOnEvents) {
  set_mode(Mode::kSpans);
  set_thread_label("test-main");
  {
    SUGAR_TRACE_SPAN("test.labeled");
  }
  auto evs = events();
  ASSERT_FALSE(evs.empty());
  bool found = false;
  for (const auto& e : evs)
    if (e.name == "test.labeled") {
      found = true;
      EXPECT_EQ(e.thread_label, "test-main");
    }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// The fuzz property: randomized span trees emitted concurrently from pool
// workers must always yield a well-formed timeline.

/// Emits a deterministic pseudo-random span tree (recursion depth <= 4,
/// fan-out <= 3) and returns the number of spans emitted.
std::size_t emit_random_tree(std::mt19937& rng, int depth) {
  std::size_t emitted = 1;
  SUGAR_TRACE_SPAN(("fuzz.d" + std::to_string(depth)).c_str());
  SUGAR_TRACE_COUNT("fuzz.spans_emitted", 1);
  if (depth >= 4) return emitted;
  std::uniform_int_distribution<int> fanout(0, 3);
  const int kids = fanout(rng);
  for (int k = 0; k < kids; ++k) emitted += emit_random_tree(rng, depth + 1);
  return emitted;
}

/// Well-formedness of one thread's events: every pair of intervals is
/// nested or disjoint, and every nested (depth > 0) event is contained in
/// some event of strictly smaller depth.
void check_thread_timeline(const std::vector<SpanEvent>& evs) {
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const auto b1 = evs[i].begin_ns, e1 = evs[i].begin_ns + evs[i].dur_ns;
    for (std::size_t j = i + 1; j < evs.size(); ++j) {
      const auto b2 = evs[j].begin_ns, e2 = evs[j].begin_ns + evs[j].dur_ns;
      const bool disjoint = e1 <= b2 || e2 <= b1;
      const bool nested = (b1 <= b2 && e2 <= e1) || (b2 <= b1 && e1 <= e2);
      ASSERT_TRUE(disjoint || nested)
          << "overlapping non-nested spans " << evs[i].name << " ["
          << b1 << "," << e1 << ") and " << evs[j].name << " [" << b2 << ","
          << e2 << ")";
    }
    if (evs[i].depth > 0) {
      bool contained = false;
      for (std::size_t j = 0; j < evs.size() && !contained; ++j) {
        if (j == i || evs[j].depth >= evs[i].depth) continue;
        const auto b2 = evs[j].begin_ns, e2 = evs[j].begin_ns + evs[j].dur_ns;
        contained = b2 <= b1 && e1 <= e2;
      }
      ASSERT_TRUE(contained)
          << "depth-" << evs[i].depth << " span " << evs[i].name
          << " not contained in any shallower span";
    }
  }
}

TEST_F(TraceTest, FuzzedSpanTreesAreWellFormedAcrossThreadCounts) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    set_mode(Mode::kOff);
    reset();
    set_mode(Mode::kSpans);
    core::set_global_threads(threads);

    std::atomic<std::size_t> emitted{0};
    core::global_pool().parallel_for(
        0, 48, 1, [&](std::size_t lo, std::size_t) {
          // Seeded by block index: the tree shape is deterministic per
          // block regardless of which worker runs it.
          std::mt19937 rng(static_cast<std::mt19937::result_type>(lo * 7919 + 1));
          emitted.fetch_add(emit_random_tree(rng, 0));
        });

    EXPECT_EQ(open_span_count(), 0u) << "threads " << threads;
    EXPECT_EQ(counter("fuzz.spans_emitted").value(), emitted.load());

    auto evs = events();
    ASSERT_EQ(evs.size(), emitted.load()) << "threads " << threads;
    std::map<std::uint64_t, std::vector<SpanEvent>> by_thread;
    for (const auto& e : evs) by_thread[e.thread].push_back(e);
    for (const auto& [tid, tevs] : by_thread) {
      (void)tid;
      check_thread_timeline(tevs);
      // events() contract: sorted by begin within a thread.
      for (std::size_t i = 1; i < tevs.size(); ++i)
        ASSERT_GE(tevs[i].begin_ns, tevs[i - 1].begin_ns);
    }
  }
  core::set_global_threads(0);
}

TEST_F(TraceTest, PoolWorkersCarryTheirLabels) {
  set_mode(Mode::kSpans);
  core::set_global_threads(3);
  // The submitting thread also claims blocks, so a single dispatch could in
  // principle finish before a worker wakes; the 1ms block body plus a few
  // attempts makes a worker-executed block practically certain.
  bool saw_worker_label = false;
  for (int attempt = 0; attempt < 5 && !saw_worker_label; ++attempt) {
    core::global_pool().parallel_for(0, 12, 1, [&](std::size_t, std::size_t) {
      SUGAR_TRACE_SPAN("fuzz.labeled_worker");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
    for (const auto& e : events())
      if (e.name == "fuzz.labeled_worker" &&
          e.thread_label.rfind("pool-worker-", 0) == 0)
        saw_worker_label = true;
  }
  EXPECT_TRUE(saw_worker_label);
  core::set_global_threads(0);
}

}  // namespace
}  // namespace sugar::core::trace
