// Tests for the deterministic thread pool: exact block coverage, partition
// math, exception propagation, bit-identical reductions at any thread
// count, re-entrancy degradation, and the SUGAR_THREADS env knob.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/threadpool.h"

namespace sugar::core {
namespace {

/// setenv/unsetenv with restore-on-destruction, so tests cannot leak a
/// SUGAR_THREADS value into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old) saved_ = old;
    had_ = old != nullptr;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (had_)
      ::setenv(name_, saved_.c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(ThreadPool, CoversRangeExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ThreadPool pool(threads);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(0, n, 13, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
  }
}

TEST(ThreadPool, RemainderPartition) {
  // 103 elements at grain 8: 12 full blocks + one 7-element remainder, and
  // the block boundaries must be identical regardless of thread count.
  EXPECT_EQ(ThreadPool::block_count(0, 103, 8), 13u);
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::set<std::pair<std::size_t, std::size_t>> blocks;
    pool.parallel_for(0, 103, 8, [&](std::size_t lo, std::size_t hi) {
      std::lock_guard<std::mutex> lock(mu);
      blocks.insert({lo, hi});
    });
    ASSERT_EQ(blocks.size(), 13u);
    std::size_t expect_lo = 0;
    for (const auto& [lo, hi] : blocks) {
      EXPECT_EQ(lo, expect_lo);
      EXPECT_EQ(hi, std::min<std::size_t>(lo + 8, 103));
      expect_lo = hi;
    }
    EXPECT_EQ(expect_lo, 103u);
  }
}

TEST(ThreadPool, BlockCountMath) {
  EXPECT_EQ(ThreadPool::block_count(0, 0, 8), 0u);
  EXPECT_EQ(ThreadPool::block_count(5, 5, 8), 0u);
  EXPECT_EQ(ThreadPool::block_count(7, 5, 8), 0u);  // inverted range
  EXPECT_EQ(ThreadPool::block_count(0, 1, 8), 1u);
  EXPECT_EQ(ThreadPool::block_count(0, 8, 8), 1u);
  EXPECT_EQ(ThreadPool::block_count(0, 9, 8), 2u);
  EXPECT_EQ(ThreadPool::block_count(0, 64, 0), 64u);  // grain 0 -> 1
  EXPECT_EQ(ThreadPool::block_count(10, 20, 3), 4u);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool ran = false;
  pool.parallel_for(10, 10, 4, [&](std::size_t, std::size_t) { ran = true; });
  pool.parallel_for(10, 3, 4, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 1,
                        [&](std::size_t lo, std::size_t) {
                          if (lo == 37) throw std::runtime_error("block 37");
                        }),
      std::runtime_error);
  // The pool must still be usable after a throwing job.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(0, 100, 1, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPool, ReduceBitIdenticalAcrossThreadCounts) {
  // A float sum whose result depends on association order: identical
  // partials-in-block-order reduction must give the same bits everywhere.
  std::vector<float> v(10'001);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = 1.0f / static_cast<float>(i + 1);

  auto run = [&](std::size_t threads) {
    ThreadPool pool(threads);
    return pool.parallel_reduce(
        std::size_t{0}, v.size(), 64, 0.0f,
        [&](std::size_t lo, std::size_t hi) {
          float s = 0.0f;
          for (std::size_t i = lo; i < hi; ++i) s += v[i];
          return s;
        },
        [](float a, float b) { return a + b; });
  };
  const float r1 = run(1);
  EXPECT_EQ(r1, run(2));
  EXPECT_EQ(r1, run(7));
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<std::size_t> inner_total{0};
  std::atomic<std::size_t> inner_moved{0};
  pool.parallel_for(0, 8, 1, [&](std::size_t, std::size_t) {
    // Re-entrant dispatch from a block — on a worker or on the submitting
    // thread — must not deadlock; it degrades to an inline serial run with
    // the same block partition, on the thread that runs the outer block.
    const std::thread::id outer = std::this_thread::get_id();
    pool.parallel_for(0, 10, 3, [&](std::size_t lo, std::size_t hi) {
      inner_total.fetch_add(hi - lo);
      if (std::this_thread::get_id() != outer) inner_moved.fetch_add(1);
    });
  });
  EXPECT_EQ(inner_total.load(), 80u);
  EXPECT_EQ(inner_moved.load(), 0u) << "an inner block ran off its outer block's thread";
}

TEST(ThreadPool, ConcurrentCallersFromPlainThreads) {
  // Several non-pool threads dispatching to one pool at once: each call
  // must still cover its range exactly (one runs on the pool, the rest
  // degrade to inline serial runs).
  ThreadPool pool(4);
  std::vector<std::thread> callers;
  std::vector<std::size_t> sums(6, 0);
  for (std::size_t c = 0; c < sums.size(); ++c) {
    callers.emplace_back([&pool, &sums, c] {
      std::atomic<std::size_t> total{0};
      pool.parallel_for(0, 500, 7, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) total.fetch_add(i);
      });
      sums[c] = total.load();
    });
  }
  for (auto& t : callers) t.join();
  const std::size_t expect = 500 * 499 / 2;
  for (std::size_t s : sums) EXPECT_EQ(s, expect);
}

TEST(ThreadPool, ThreadsFromEnvParsing) {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  {
    ScopedEnv env("SUGAR_THREADS", "7");
    EXPECT_EQ(threads_from_env(), 7u);
  }
  {
    ScopedEnv env("SUGAR_THREADS", nullptr);
    EXPECT_EQ(threads_from_env(), hw);
  }
  // Strict whole-string parse: malformed values warn and fall back.
  for (const char* bad : {"abc", "4x", "", " 4", "-2", "0"}) {
    ScopedEnv env("SUGAR_THREADS", bad);
    EXPECT_EQ(threads_from_env(), hw) << "value: '" << bad << "'";
  }
  {
    ScopedEnv env("SUGAR_THREADS", "100000");  // clamped
    EXPECT_EQ(threads_from_env(), 512u);
  }
}

TEST(ThreadPool, SetGlobalThreads) {
  set_global_threads(3);
  EXPECT_EQ(global_thread_count(), 3u);
  EXPECT_EQ(global_pool().thread_count(), 3u);
  std::atomic<std::size_t> count{0};
  global_pool().parallel_for(0, 50, 4, [&](std::size_t lo, std::size_t hi) {
    count.fetch_add(hi - lo);
  });
  EXPECT_EQ(count.load(), 50u);
  // Restore the env-derived width for whatever test runs next.
  set_global_threads(0);
  EXPECT_EQ(global_thread_count(), threads_from_env());
}

}  // namespace
}  // namespace sugar::core
