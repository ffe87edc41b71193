// Shared parallel-execution substrate: a deterministic, work-stealing-free
// thread pool with parallel_for / parallel_reduce helpers, used by the ml
// hot paths (blocked GEMM, per-tree forest fitting, per-class GBDT rounds,
// histogram features, k-NN query rows). Any thread may call it.
//
// Determinism contract: the iteration range is partitioned into fixed-size
// blocks derived ONLY from (range, grain) — never from the thread count —
// and parallel_reduce combines per-block partials in ascending block order
// on the calling thread. A kernel whose blocks are independent therefore
// produces bit-identical output at any SUGAR_THREADS value, including 1
// (where everything runs inline on the caller with zero pool overhead).
//
// Re-entrancy: a parallel_for issued from inside a block (on a pool worker
// or on the submitting thread), or while another thread holds the pool,
// degrades to an inline serial run of the same blocks in the same order —
// same results, no deadlock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace sugar::core {

class ThreadPool {
 public:
  /// `threads` is the total worker count including the calling thread;
  /// 0 means threads_from_env(). threads <= 1 spawns no workers and every
  /// parallel_for runs inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const { return workers_.size() + 1; }

  /// fn(lo, hi) over disjoint blocks covering [begin, end). Blocks are
  /// [begin + b*grain, min(end, begin + (b+1)*grain)). The first exception
  /// thrown by any block is rethrown on the caller after all blocks finish.
  using BlockFn = std::function<void(std::size_t, std::size_t)>;
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const BlockFn& fn);

  /// Number of blocks parallel_for will create — a pure function of the
  /// range and grain, independent of the thread count.
  static std::size_t block_count(std::size_t begin, std::size_t end,
                                 std::size_t grain) {
    if (end <= begin) return 0;
    if (grain == 0) grain = 1;
    return (end - begin + grain - 1) / grain;
  }

  /// map(lo, hi) -> partial per block; partials combined with
  /// combine(acc, partial) in ascending block order on the caller, so
  /// floating-point reductions are bit-identical at any thread count.
  template <typename T, typename MapFn, typename CombineFn>
  T parallel_reduce(std::size_t begin, std::size_t end, std::size_t grain,
                    T init, MapFn&& map, CombineFn&& combine) {
    if (grain == 0) grain = 1;
    const std::size_t blocks = block_count(begin, end, grain);
    if (blocks == 0) return init;
    std::vector<T> partials(blocks, init);
    parallel_for(begin, end, grain, [&](std::size_t lo, std::size_t hi) {
      partials[(lo - begin) / grain] = map(lo, hi);
    });
    T acc = std::move(init);
    for (auto& p : partials) acc = combine(std::move(acc), std::move(p));
    return acc;
  }

 private:
  struct Job;

  void worker_loop(std::size_t index);
  void work_on(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mu_;                    // guards job_ / stop_
  std::mutex submit_mu_;             // serializes parallel_for callers
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::shared_ptr<Job> job_;
  bool stop_ = false;
};

/// SUGAR_THREADS with the strict whole-string from_chars discipline of the
/// other SUGAR_* knobs; absent, malformed or 0 falls back to
/// hardware_concurrency (min 1).
std::size_t threads_from_env();

/// Process-wide pool the ml kernels dispatch to; built lazily from
/// threads_from_env() on first use.
ThreadPool& global_pool();
std::size_t global_thread_count();

/// Rebuilds the global pool with `threads` workers (0 = re-read the env).
/// Only call at a quiescent point — never while kernels are in flight.
void set_global_threads(std::size_t threads);

}  // namespace sugar::core
