// Bounded-budget page cache for the out-of-core dataset substrate. Pages
// are opaque byte blobs keyed by (file id, page number); a miss runs the
// caller-supplied loader (pread + CRC verify at the store layer), a hit
// returns the resident bytes. Eviction is sharded LRU under a global byte
// budget (SUGAR_PAGE_CACHE_MB, strict envparse discipline); pinned pages
// are never evicted, so a cursor can hold its current page across a
// compute loop while the rest of the working set turns over.
//
// A single prefetch thread services lookahead hints from iterators: a hint
// enqueues (key, loader); the thread loads the page into the cache
// unpinned so the next sequential get() hits. The thread is started
// lazily on the first hint and joins in the destructor. Hit/miss/evict/
// prefetch counters are internal atomics (always on, cheap), read through
// stats(); they are the counts' only source.
//
// Determinism: the cache only affects WHERE bytes are read from (disk vs
// memory), never their values — loaders must be pure functions of the key.
// Consumers therefore keep the bit-identity contract at any budget, any
// page size and any thread count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace sugar::core {

struct PageKey {
  std::uint64_t file_id = 0;
  std::uint64_t page_no = 0;

  friend bool operator==(const PageKey& a, const PageKey& b) {
    return a.file_id == b.file_id && a.page_no == b.page_no;
  }
};

class PageCache {
 public:
  /// Loader: fill `out` with the page bytes; false + `error` on failure
  /// (I/O error, CRC mismatch). Must be a pure function of the key.
  using Loader = std::function<bool(std::vector<std::uint8_t>& out,
                                    std::string& error)>;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t prefetch_issued = 0;   // hints accepted onto the queue
    std::uint64_t prefetch_loaded = 0;   // pages the prefetch thread loaded
    std::uint64_t prefetch_dropped = 0;  // hints dropped (full queue / dup)
    std::uint64_t inflight = 0;          // prefetches queued or loading now
    std::uint64_t resident_bytes = 0;
    std::uint64_t resident_pages = 0;

    [[nodiscard]] double hit_rate() const {
      const double total = static_cast<double>(hits + misses);
      return total == 0 ? 1.0 : static_cast<double>(hits) / total;
    }
  };

  /// `budget_bytes` bounds resident unpinned bytes across all shards;
  /// pinned pages can push residency above it (counted, never evicted).
  explicit PageCache(std::size_t budget_bytes, std::size_t shards = 8);
  ~PageCache();
  PageCache(const PageCache&) = delete;
  PageCache& operator=(const PageCache&) = delete;

  /// Pin handle: keeps the page resident while alive. Copyable (shared
  /// refcount); the last copy's destruction unpins.
  class Pin {
   public:
    Pin() = default;
    [[nodiscard]] const std::uint8_t* data() const;  // null when empty
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] explicit operator bool() const { return entry_ != nullptr; }
    void reset() { entry_.reset(); }

   private:
    friend class PageCache;
    struct Entry;
    explicit Pin(std::shared_ptr<Entry> e) : entry_(std::move(e)) {}
    std::shared_ptr<Entry> entry_;
  };

  /// Hit: pins and returns the resident page. Miss: runs `loader` (outside
  /// the shard lock), inserts, pins. Concurrent misses on one key load
  /// once — latecomers wait. Null Pin + `error` when the loader fails.
  Pin get(PageKey key, const Loader& loader, std::string* error = nullptr);

  /// Lookahead hint: enqueue an async load of `key` so a later get() hits.
  /// Drops silently when the page is resident, already queued, or the
  /// queue is full — hints are an optimization, never a correctness need.
  void prefetch(PageKey key, Loader loader);

  /// Drops every unpinned page of `file_id` (store close).
  void drop_file(std::uint64_t file_id);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t budget_bytes() const { return budget_; }

  /// Process-wide cache sized from SUGAR_PAGE_CACHE_MB (default 64 MB;
  /// strict whole-string parsing, malformed values warn and keep the
  /// default). Built lazily on first use.
  static PageCache& global();

 private:
  struct Shard;

  Shard& shard_of(PageKey key);
  void evict_to_budget(Shard& s);  // caller holds s.mu
  void prefetch_loop();
  bool load_into(PageKey key, const Loader& loader, std::string* error,
                 Pin* out_pin);

  std::size_t budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Counters (relaxed; exact totals matter only at stats() time).
  std::atomic<std::uint64_t> hits_{0}, misses_{0}, evictions_{0};
  std::atomic<std::uint64_t> prefetch_issued_{0}, prefetch_loaded_{0},
      prefetch_dropped_{0}, inflight_{0};

  // Prefetch thread (lazy start, joined on destruction).
  std::mutex pf_mu_;
  std::condition_variable pf_cv_;
  std::deque<std::pair<PageKey, Loader>> pf_queue_;
  std::thread pf_thread_;
  bool pf_started_ = false;
  bool pf_stop_ = false;
  static constexpr std::size_t kMaxPrefetchQueue = 64;
};

/// Registry for PageKey::file_id values — every open store file draws a
/// process-unique id so cache keys never collide across files (including a
/// re-opened path: a fresh id means stale pages of the old generation can
/// never serve the new one; they age out via LRU or drop_file).
std::uint64_t next_page_file_id();

/// Peak resident set size of this process in bytes (ru_maxrss), the
/// evidence the out-of-core gates record. Monotone over process life.
std::size_t peak_rss_bytes();

}  // namespace sugar::core
