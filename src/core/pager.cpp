#include "core/pager.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

#include "core/envparse.h"

namespace sugar::core {

struct PageCache::Pin::Entry {
  PageKey key;
  std::vector<std::uint8_t> bytes;
  bool ready = false;
  bool failed = false;
  std::string error;
};

const std::uint8_t* PageCache::Pin::data() const {
  return entry_ ? entry_->bytes.data() : nullptr;
}

std::size_t PageCache::Pin::size() const {
  return entry_ ? entry_->bytes.size() : 0;
}

namespace {

std::uint64_t key_hash(PageKey k) {
  // splitmix64 over the packed key — shard assignment and map hashing.
  std::uint64_t z = k.file_id * 0x9E3779B97F4A7C15ull + k.page_no + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct KeyHasher {
  std::size_t operator()(PageKey k) const {
    return static_cast<std::size_t>(key_hash(k));
  }
};

}  // namespace

struct PageCache::Shard {
  std::mutex mu;
  std::condition_variable cv;  // wakes waiters on a concurrent load
  std::unordered_map<PageKey, std::shared_ptr<Pin::Entry>, KeyHasher> map;
  /// Most-recent-first LRU order of resident keys.
  std::list<PageKey> lru;
  std::unordered_map<PageKey, std::list<PageKey>::iterator, KeyHasher> lru_pos;
  std::size_t bytes = 0;
  std::size_t budget = 0;
};

PageCache::PageCache(std::size_t budget_bytes, std::size_t shards)
    : budget_(budget_bytes) {
  shards = std::max<std::size_t>(1, shards);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto s = std::make_unique<Shard>();
    s->budget = std::max<std::size_t>(1, budget_bytes / shards);
    shards_.push_back(std::move(s));
  }
}

PageCache::~PageCache() {
  {
    std::lock_guard<std::mutex> lock(pf_mu_);
    pf_stop_ = true;
  }
  pf_cv_.notify_all();
  if (pf_thread_.joinable()) pf_thread_.join();
}

PageCache::Shard& PageCache::shard_of(PageKey key) {
  return *shards_[key_hash(key) % shards_.size()];
}

void PageCache::evict_to_budget(Shard& s) {
  // Walk from the LRU tail; entries with live pins (shared_ptr held
  // outside the map) are skipped, everything else is dropped until the
  // shard is back under budget.
  auto it = s.lru.end();
  while (s.bytes > s.budget && it != s.lru.begin()) {
    --it;
    auto mit = s.map.find(*it);
    if (mit == s.map.end()) {
      it = s.lru.erase(it);
      continue;
    }
    if (mit->second.use_count() > 1) continue;  // pinned
    s.bytes -= mit->second->bytes.size();
    s.map.erase(mit);
    s.lru_pos.erase(*it);
    it = s.lru.erase(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool PageCache::load_into(PageKey key, const Loader& loader, std::string* error,
                          Pin* out_pin) {
  Shard& s = shard_of(key);
  std::unique_lock<std::mutex> lock(s.mu);
  auto it = s.map.find(key);
  if (it != s.map.end()) {
    auto entry = it->second;
    // Another thread is loading this key: wait for its outcome rather than
    // loading twice.
    s.cv.wait(lock, [&] { return entry->ready || entry->failed; });
    if (entry->failed) {
      if (error) *error = entry->error;
      return false;
    }
    auto pos = s.lru_pos.find(key);
    if (pos != s.lru_pos.end())
      s.lru.splice(s.lru.begin(), s.lru, pos->second);
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (out_pin) *out_pin = Pin(std::move(entry));
    return true;
  }

  // Miss: reserve the slot, load outside the lock.
  auto entry = std::make_shared<Pin::Entry>();
  entry->key = key;
  s.map.emplace(key, entry);
  misses_.fetch_add(1, std::memory_order_relaxed);
  lock.unlock();

  std::string err;
  const bool ok = loader(entry->bytes, err);

  lock.lock();
  if (!ok) {
    entry->failed = true;
    entry->error = err;
    s.map.erase(key);  // later gets retry
    lock.unlock();
    s.cv.notify_all();
    if (error) *error = err;
    return false;
  }
  entry->ready = true;
  s.bytes += entry->bytes.size();
  s.lru.push_front(key);
  s.lru_pos[key] = s.lru.begin();
  if (out_pin) *out_pin = Pin(entry);
  evict_to_budget(s);
  lock.unlock();
  s.cv.notify_all();
  return true;
}

PageCache::Pin PageCache::get(PageKey key, const Loader& loader,
                              std::string* error) {
  Pin pin;
  load_into(key, loader, error, &pin);
  return pin;
}

void PageCache::prefetch(PageKey key, Loader loader) {
  {
    Shard& s = shard_of(key);
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.map.count(key) != 0) {
      prefetch_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;  // resident or already loading
    }
  }
  {
    std::lock_guard<std::mutex> lock(pf_mu_);
    if (pf_queue_.size() >= kMaxPrefetchQueue) {
      prefetch_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (const auto& q : pf_queue_)
      if (q.first == key) {
        prefetch_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    pf_queue_.emplace_back(key, std::move(loader));
    prefetch_issued_.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_add(1, std::memory_order_relaxed);
    if (!pf_started_) {
      pf_started_ = true;
      pf_thread_ = std::thread([this] { prefetch_loop(); });
    }
  }
  pf_cv_.notify_one();
}

void PageCache::prefetch_loop() {
  for (;;) {
    std::pair<PageKey, Loader> job;
    {
      std::unique_lock<std::mutex> lock(pf_mu_);
      pf_cv_.wait(lock, [&] { return pf_stop_ || !pf_queue_.empty(); });
      if (pf_stop_ && pf_queue_.empty()) return;
      job = std::move(pf_queue_.front());
      pf_queue_.pop_front();
    }
    // Load through the regular path (dedup + budget accounting); the pin
    // is dropped immediately so the page sits unpinned awaiting its get().
    std::string err;
    if (load_into(job.first, job.second, &err, nullptr))
      prefetch_loaded_.fetch_add(1, std::memory_order_relaxed);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void PageCache::drop_file(std::uint64_t file_id) {
  for (auto& sp : shards_) {
    Shard& s = *sp;
    std::lock_guard<std::mutex> lock(s.mu);
    for (auto it = s.map.begin(); it != s.map.end();) {
      if (it->first.file_id == file_id && it->second->ready) {
        s.bytes -= it->second->bytes.size();
        auto pos = s.lru_pos.find(it->first);
        if (pos != s.lru_pos.end()) {
          s.lru.erase(pos->second);
          s.lru_pos.erase(pos);
        }
        it = s.map.erase(it);
      } else {
        ++it;
      }
    }
  }
}

PageCache::Stats PageCache::stats() const {
  Stats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.evictions = evictions_.load(std::memory_order_relaxed);
  st.prefetch_issued = prefetch_issued_.load(std::memory_order_relaxed);
  st.prefetch_loaded = prefetch_loaded_.load(std::memory_order_relaxed);
  st.prefetch_dropped = prefetch_dropped_.load(std::memory_order_relaxed);
  st.inflight = inflight_.load(std::memory_order_relaxed);
  for (const auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->mu);
    st.resident_bytes += sp->bytes;
    st.resident_pages += sp->map.size();
  }
  return st;
}

PageCache& PageCache::global() {
  static PageCache* cache = [] {
    std::size_t mb = 64;
    if (const char* env = std::getenv("SUGAR_PAGE_CACHE_MB")) {
      std::size_t v = 0;
      if (parse_env_number("SUGAR_PAGE_CACHE_MB", env, v) && v > 0) mb = v;
    }
    return new PageCache(mb * 1024 * 1024);
  }();
  return *cache;
}

std::uint64_t next_page_file_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::size_t peak_rss_bytes() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

}  // namespace sugar::core
