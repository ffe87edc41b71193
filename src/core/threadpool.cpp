#include "core/threadpool.h"

#include "core/envparse.h"
#include "core/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string_view>

namespace sugar::core {
namespace {

// Set inside pool workers, and on a submitting thread while it runs its
// job's blocks, so a nested parallel_for degrades to an inline serial run
// instead of deadlocking on the pool it is already inside.
thread_local bool tl_in_pool_worker = false;

}  // namespace

// One in-flight parallel_for. Blocks are claimed via an atomic ticket
// (`next`); `done` counts finished blocks so the submitting thread knows
// when the range is fully covered. Heap-allocated and shared with the
// workers so a late-waking worker can observe an already-finished job
// without touching freed stack memory.
struct ThreadPool::Job {
  std::size_t begin = 0, end = 0, grain = 1, blocks = 0;
  const BlockFn* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex err_mu;
  std::exception_ptr error;
};

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = threads_from_env();
  if (threads < 1) threads = 1;
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::work_on(Job& job) {
  for (;;) {
    std::size_t b = job.next.fetch_add(1, std::memory_order_relaxed);
    if (b >= job.blocks) return;
    std::size_t lo = job.begin + b * job.grain;
    std::size_t hi = std::min(job.end, lo + job.grain);
    try {
      (*job.fn)(lo, hi);
    } catch (...) {
      std::lock_guard<std::mutex> lk(job.err_mu);
      if (!job.error) job.error = std::current_exception();
    }
    if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.blocks) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_in_pool_worker = true;
  // Unconditional: the pool is often built before --trace flips the mode
  // on, and one registration per worker thread is not a hot path.
  trace::set_thread_label("pool-worker-" + std::to_string(index + 1));
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [&] {
      return stop_ || (job_ && job_->next.load(std::memory_order_relaxed) <
                                   job_->blocks);
    });
    if (stop_) return;
    std::shared_ptr<Job> job = job_;
    lk.unlock();
    work_on(*job);
    lk.lock();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              std::size_t grain, const BlockFn& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t blocks = block_count(begin, end, grain);
  auto run_serial = [&] {
    for (std::size_t b = 0; b < blocks; ++b) {
      std::size_t lo = begin + b * grain;
      fn(lo, std::min(end, lo + grain));
    }
  };
  if (workers_.empty() || blocks <= 1 || tl_in_pool_worker) {
    run_serial();
    return;
  }
  // Another thread already has the pool (two caller threads dispatching at
  // once): run this call's blocks inline — identical results, no queueing.
  std::unique_lock<std::mutex> submit(submit_mu_, std::try_to_lock);
  if (!submit.owns_lock()) {
    run_serial();
    return;
  }

  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->blocks = blocks;
  job->fn = &fn;
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = job;
  }
  cv_work_.notify_all();
  {
    // The submitting thread is worker #0 and holds submit_mu_: flag it like
    // a pool worker, so a parallel_for from one of its blocks runs inline
    // instead of try-locking a mutex this thread already owns.
    struct InPoolScope {
      bool saved = std::exchange(tl_in_pool_worker, true);
      ~InPoolScope() { tl_in_pool_worker = saved; }
    } in_pool;
    work_on(*job);
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] {
      return job->done.load(std::memory_order_acquire) == job->blocks;
    });
    job_.reset();
  }
  if (job->error) std::rethrow_exception(job->error);
}

std::size_t threads_from_env() {
  std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const char* s = std::getenv("SUGAR_THREADS");
  if (!s) return hw;
  std::size_t value = 0;
  if (!core::parse_env_number("SUGAR_THREADS", s, value)) return hw;
  if (value == 0) return hw;  // 0 = auto
  constexpr std::size_t kMaxThreads = 512;
  if (value > kMaxThreads) {
    std::cerr << "sugar: clamping SUGAR_THREADS=" << value << " to "
              << kMaxThreads << "\n";
    value = kMaxThreads;
  }
  return value;
}

namespace {
std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(threads_from_env());
  return *g_pool;
}

std::size_t global_thread_count() { return global_pool().thread_count(); }

void set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_pool = std::make_unique<ThreadPool>(threads == 0 ? threads_from_env()
                                                     : threads);
}

}  // namespace sugar::core
