#include "serve/flow_table.h"

#include <algorithm>

namespace sugar::serve {

ShardedFlowTable::ShardedFlowTable(FlowTableConfig cfg) : cfg_(cfg) {
  const std::size_t shards = std::max<std::size_t>(1, cfg_.shards);
  cfg_.shards = shards;
  cfg_.max_flows = std::max<std::size_t>(shards, cfg_.max_flows);
  per_shard_cap_ = (cfg_.max_flows + shards - 1) / shards;
  shards_ = std::vector<Shard>(shards);
  for (Shard& s : shards_) {
    // Reserve the index up front so admission at capacity never rehashes
    // (each created flow still allocates one index node); the slot/feature
    // slabs grow on demand but are capped by touch().
    s.index.reserve(per_shard_cap_);
  }
}

std::size_t ShardedFlowTable::bytes_per_flow() const {
  // One slot, its feature accumulator, and one index entry (key + value +
  // bucket pointer, approximated as 2 pointers of overhead).
  return sizeof(Slot) + cfg_.feature_dim * sizeof(float) +
         sizeof(net::FlowKey) + sizeof(std::uint32_t) + 2 * sizeof(void*);
}

std::size_t ShardedFlowTable::bytes_cap() const {
  return shards_.size() * per_shard_cap_ * bytes_per_flow();
}

std::size_t ShardedFlowTable::bytes_resident() const {
  return live_total() * bytes_per_flow();
}

void ShardedFlowTable::lru_unlink(Shard& s, std::uint32_t i) {
  Slot& slot = s.slots[i];
  if (slot.lru_prev != kNil)
    s.slots[slot.lru_prev].lru_next = slot.lru_next;
  else
    s.lru_head = slot.lru_next;
  if (slot.lru_next != kNil)
    s.slots[slot.lru_next].lru_prev = slot.lru_prev;
  else
    s.lru_tail = slot.lru_prev;
  slot.lru_prev = slot.lru_next = kNil;
}

void ShardedFlowTable::lru_push_head(Shard& s, std::uint32_t i) {
  Slot& slot = s.slots[i];
  slot.lru_prev = kNil;
  slot.lru_next = s.lru_head;
  if (s.lru_head != kNil) s.slots[s.lru_head].lru_prev = i;
  s.lru_head = i;
  if (s.lru_tail == kNil) s.lru_tail = i;
}

ShardedFlowTable::TouchResult ShardedFlowTable::touch(std::size_t shard,
                                                      const net::FlowKey& key,
                                                      std::uint64_t ts_usec,
                                                      const float* features,
                                                      bool admit_new) {
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  TouchResult res;

  auto it = s.index.find(key);
  if (it == s.index.end()) {
    if (!admit_new) {
      res.status = TouchStatus::kNotAdmitted;
      return res;
    }
    if (s.live >= per_shard_cap_ || (cfg_.alloc_fault && cfg_.alloc_fault())) {
      res.status = TouchStatus::kFull;
      return res;
    }
    std::uint32_t i;
    if (!s.free.empty()) {
      i = s.free.back();
      s.free.pop_back();
    } else {
      i = static_cast<std::uint32_t>(s.slots.size());
      s.slots.emplace_back();
      s.features.resize(s.slots.size() * cfg_.feature_dim, 0.0f);
    }
    Slot& slot = s.slots[i];
    slot = Slot{};
    slot.key = key;
    slot.first_ts_usec = ts_usec;
    slot.live = true;
    std::fill_n(s.features.data() + std::size_t{i} * cfg_.feature_dim,
                cfg_.feature_dim, 0.0f);
    it = s.index.emplace(key, i).first;
    ++s.live;
    lru_push_head(s, i);
    res.status = TouchStatus::kCreated;
  } else {
    res.status = TouchStatus::kExisting;
    lru_unlink(s, it->second);
    lru_push_head(s, it->second);
  }

  const std::uint32_t i = it->second;
  Slot& slot = s.slots[i];
  slot.last_ts_usec = std::max(slot.last_ts_usec, ts_usec);
  ++slot.packets;
  if (slot.feature_packets < cfg_.classify_at && features != nullptr) {
    float* acc = s.features.data() + std::size_t{i} * cfg_.feature_dim;
    for (std::size_t d = 0; d < cfg_.feature_dim; ++d) acc[d] += features[d];
    ++slot.feature_packets;
    if (slot.feature_packets == cfg_.classify_at && !slot.classified)
      res.ready = true;
  }
  res.slot = i;
  return res;
}

void ShardedFlowTable::mark_classified(std::size_t shard, std::uint32_t slot) {
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  if (slot < s.slots.size() && s.slots[slot].live)
    s.slots[slot].classified = true;
}

FlowView ShardedFlowTable::view_locked(const Shard& s, std::uint32_t i) const {
  const Slot& slot = s.slots[i];
  FlowView v;
  v.key = slot.key;
  v.first_ts_usec = slot.first_ts_usec;
  v.last_ts_usec = slot.last_ts_usec;
  v.packets = slot.packets;
  v.feature_packets = slot.feature_packets;
  v.classified = slot.classified;
  v.feature_sum = s.features.data() + std::size_t{i} * cfg_.feature_dim;
  return v;
}

FlowView ShardedFlowTable::view(std::size_t shard, std::uint32_t slot) const {
  const Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  return view_locked(s, slot);
}

void ShardedFlowTable::release_locked(Shard& s, std::uint32_t i) {
  lru_unlink(s, i);
  s.index.erase(s.slots[i].key);
  s.slots[i].live = false;
  s.free.push_back(i);
  --s.live;
}

void ShardedFlowTable::evict_locked(Shard& s, std::uint32_t i, const EvictFn& fn) {
  if (fn) fn(view_locked(s, i));
  release_locked(s, i);
}

std::size_t ShardedFlowTable::evict_idle(std::size_t shard, std::uint64_t now_usec,
                                         std::uint64_t idle_usec,
                                         const EvictFn& fn) {
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  std::size_t evicted = 0;
  // LRU order is last-touch order, so the tail is the longest-idle flow;
  // the first non-expired tail ends the sweep.
  while (s.lru_tail != kNil) {
    const Slot& tail = s.slots[s.lru_tail];
    if (tail.last_ts_usec + idle_usec > now_usec) break;
    evict_locked(s, s.lru_tail, fn);
    ++evicted;
  }
  return evicted;
}

std::size_t ShardedFlowTable::evict_ready(std::size_t shard, std::size_t target_live,
                                          std::size_t min_packets,
                                          std::size_t max_scan, const EvictFn& fn) {
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  std::size_t evicted = 0, scanned = 0;
  std::uint32_t i = s.lru_tail;
  while (i != kNil && s.live > target_live && scanned < max_scan) {
    const std::uint32_t prev = s.slots[i].lru_prev;
    if (s.slots[i].feature_packets >= min_packets) {
      evict_locked(s, i, fn);
      ++evicted;
    }
    i = prev;
    ++scanned;
  }
  return evicted;
}

bool ShardedFlowTable::evict_tail(std::size_t shard, const EvictFn& fn) {
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.lru_tail == kNil) return false;
  evict_locked(s, s.lru_tail, fn);
  return true;
}

std::size_t ShardedFlowTable::evict_all(std::size_t shard, const EvictFn& fn) {
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  std::size_t evicted = 0;
  while (s.lru_tail != kNil) {
    evict_locked(s, s.lru_tail, fn);
    ++evicted;
  }
  return evicted;
}

void ShardedFlowTable::for_each_lru(
    std::size_t shard, const std::function<void(const FlowRecord&)>& fn) const {
  const Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  FlowRecord rec;
  for (std::uint32_t i = s.lru_tail; i != kNil; i = s.slots[i].lru_prev) {
    const Slot& slot = s.slots[i];
    rec.key = slot.key;
    rec.first_ts_usec = slot.first_ts_usec;
    rec.last_ts_usec = slot.last_ts_usec;
    rec.packets = slot.packets;
    rec.feature_packets = slot.feature_packets;
    rec.classified = slot.classified;
    const float* acc = s.features.data() + std::size_t{i} * cfg_.feature_dim;
    rec.feature_sum.assign(acc, acc + cfg_.feature_dim);
    fn(rec);
  }
}

bool ShardedFlowTable::restore_flow(std::size_t shard, const FlowRecord& record) {
  if (record.feature_sum.size() != cfg_.feature_dim) return false;
  Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.live >= per_shard_cap_) return false;
  if (s.index.count(record.key)) return false;
  std::uint32_t i;
  if (!s.free.empty()) {
    i = s.free.back();
    s.free.pop_back();
  } else {
    i = static_cast<std::uint32_t>(s.slots.size());
    s.slots.emplace_back();
    s.features.resize(s.slots.size() * cfg_.feature_dim, 0.0f);
  }
  Slot& slot = s.slots[i];
  slot = Slot{};
  slot.key = record.key;
  slot.first_ts_usec = record.first_ts_usec;
  slot.last_ts_usec = record.last_ts_usec;
  slot.packets = record.packets;
  slot.feature_packets = record.feature_packets;
  slot.classified = record.classified;
  slot.live = true;
  std::copy(record.feature_sum.begin(), record.feature_sum.end(),
            s.features.data() + std::size_t{i} * cfg_.feature_dim);
  s.index.emplace(record.key, i);
  ++s.live;
  lru_push_head(s, i);
  return true;
}

std::size_t ShardedFlowTable::live(std::size_t shard) const {
  const Shard& s = shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  return s.live;
}

std::size_t ShardedFlowTable::live_total() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) total += live(i);
  return total;
}

}  // namespace sugar::serve
