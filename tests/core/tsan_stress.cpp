// Contention stress for the parallel substrate, intended for a TSan build
// (-DSUGAR_SANITIZE=thread; `ctest -L tsan`) but also correct — and run —
// under plain builds. Exercises the race-prone seams: many plain threads
// dispatching to one global pool (the pool's contended-dispatch path),
// concurrent forest and GBDT fits sharing the pool, and concurrent trace
// emission against snapshot readers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/threadpool.h"
#include "core/trace.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/matrix.h"

namespace sugar::core {
namespace {

ml::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  ml::Matrix m(rows, cols);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : m.data()) v = dist(rng);
  return m;
}

TEST(TsanStress, ConcurrentGlobalPoolCallers) {
  set_global_threads(4);
  std::vector<std::thread> callers;
  std::atomic<bool> failed{false};
  for (int c = 0; c < 8; ++c) {
    callers.emplace_back([&failed] {
      for (int round = 0; round < 20; ++round) {
        std::atomic<std::size_t> total{0};
        global_pool().parallel_for(0, 311, 7,
                                   [&](std::size_t lo, std::size_t hi) {
                                     total.fetch_add(hi - lo);
                                   });
        if (total.load() != 311) failed.store(true);
      }
    });
  }
  for (auto& t : callers) t.join();
  set_global_threads(0);
  EXPECT_FALSE(failed.load());
}

TEST(TsanStress, ConcurrentForestFitsBitIdentical) {
  set_global_threads(4);
  const ml::Matrix x = random_matrix(200, 10, 7);
  std::vector<int> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 3);

  std::vector<std::vector<int>> preds(6);
  std::vector<std::thread> fits;
  for (std::size_t c = 0; c < preds.size(); ++c) {
    fits.emplace_back([&, c] {
      ml::ForestConfig cfg;
      cfg.num_trees = 10;
      cfg.seed = 5;
      ml::RandomForest rf(cfg);
      rf.fit(x, y, 3);
      preds[c] = rf.predict(x);
    });
  }
  for (auto& t : fits) t.join();
  set_global_threads(0);
  for (std::size_t c = 1; c < preds.size(); ++c)
    EXPECT_EQ(preds[c], preds[0]) << "fit " << c;
}

TEST(TsanStress, ConcurrentGbdtFitsBitIdentical) {
  // One caller wins the pool and fits its class trees across the workers
  // (each tree's histograms nested inline); the rest run inline. Every fit
  // must produce the same scores to the bit.
  set_global_threads(4);
  const ml::Matrix x = random_matrix(200, 10, 11);
  std::vector<int> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 9);

  std::vector<ml::Matrix> scores(6);
  std::vector<std::thread> fits;
  for (std::size_t c = 0; c < scores.size(); ++c) {
    fits.emplace_back([&, c] {
      ml::GbdtConfig cfg = ml::GbdtConfig::xgboost_style();
      cfg.rounds = 3;
      ml::GradientBoosting gb(cfg);
      gb.fit(x, y, 9);
      scores[c] = gb.decision_function(x);
    });
  }
  for (auto& t : fits) t.join();
  set_global_threads(0);
  for (std::size_t c = 1; c < scores.size(); ++c) {
    ASSERT_EQ(scores[c].size(), scores[0].size());
    EXPECT_EQ(std::memcmp(scores[c].data().data(), scores[0].data().data(),
                          scores[0].size() * sizeof(float)),
              0)
        << "fit " << c;
  }
}

// ---------------------------------------------------------------------------
// TraceConcurrent*: the observability substrate under contention. Span and
// counter emission from many threads while snapshot readers run
// concurrently — the seams TSan must see clean (per-thread state mutexes,
// the counter atomics, registry interning).

TEST(TraceConcurrent, EmittersAndSnapshottersRace) {
  trace::set_mode(trace::Mode::kSpans);
  trace::reset();
  set_global_threads(4);

  std::atomic<bool> stop{false};
  // Reader thread: continuously snapshots while emitters run.
  std::thread reader([&stop] {
    while (!stop.load()) {
      auto stats = trace::phase_stats();
      auto evs = trace::events();
      auto ctrs = trace::counters_snapshot();
      (void)trace::dropped_events();
      (void)trace::open_span_count();
      if (!stats.empty() && !evs.empty() && !ctrs.empty()) {
        // touch the copies so nothing is optimized away
        volatile std::size_t sink = stats.size() + evs.size() + ctrs.size();
        (void)sink;
      }
    }
  });

  std::vector<std::thread> emitters;
  for (int t = 0; t < 6; ++t) {
    emitters.emplace_back([t] {
      trace::set_thread_label("stress-emitter-" + std::to_string(t));
      for (int round = 0; round < 200; ++round) {
        SUGAR_TRACE_SPAN("stress.outer");
        SUGAR_TRACE_COUNT("stress.rounds", 1);
        {
          SUGAR_TRACE_SPAN("stress.inner");
          global_pool().parallel_for(0, 64, 8,
                                     [](std::size_t lo, std::size_t hi) {
                                       SUGAR_TRACE_SPAN("stress.block");
                                       SUGAR_TRACE_COUNT("stress.blocks",
                                                         hi - lo);
                                     });
        }
      }
    });
  }
  for (auto& t : emitters) t.join();
  stop.store(true);
  reader.join();
  set_global_threads(0);

  EXPECT_EQ(trace::open_span_count(), 0u);
  EXPECT_EQ(trace::counter("stress.rounds").value(), 6u * 200u);
  EXPECT_EQ(trace::counter("stress.blocks").value(), 6u * 200u * 64u);
  trace::set_mode(trace::Mode::kOff);
  trace::reset();
}

}  // namespace
}  // namespace sugar::core
