// Hash-sharded, hard-bounded flow table for online classification. Flows
// are assigned to shards by a pure function of the canonical bi-flow key
// (FlowKeyHash % shards) — never by arrival thread — so the same packet
// stream produces the same shard contents at any SUGAR_THREADS value.
//
// Memory bound: every shard owns a slot slab and a flat feature-accumulator
// slab (feature_dim floats per slot), both grown on demand up to the
// shard's capacity and never beyond, plus a key index reserved for that
// capacity so it never rehashes. Admission beyond the bound is an explicit
// policy decision (reject, or evict-to-admit at shed ladder stage 3), so
// the table cannot OOM no matter how hostile the stream is. It is not
// allocation-free at capacity: the index is a std::unordered_map, so every
// created flow allocates one node, freed when the flow is evicted.
// bytes_cap() is the arithmetic bound DESIGN.md §13 quotes.
//
// Concurrency: each per-shard operation takes that shard's mutex, so the
// engine's round, a maintenance evictor and stats snapshotters can overlap
// freely.
// LRU order is last-touch order; the tail is always the coldest flow.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "net/flow.h"

namespace sugar::serve {

struct FlowTableConfig {
  std::size_t shards = 8;
  /// Hard bound on resident flows across all shards (split evenly).
  std::size_t max_flows = 4096;
  /// Width of the per-flow feature accumulator.
  std::size_t feature_dim = 0;
  /// Packets accumulated into the feature sum before it freezes.
  std::size_t classify_at = 8;
  /// Chaos hook: when set and returning true, the next slot creation fails
  /// as if the shard were at capacity (TouchStatus::kFull). Consulted only
  /// on the create path, so resident flows are never affected.
  std::function<bool()> alloc_fault;
};

/// Full state of one resident flow (snapshot serialization) — FlowView plus
/// the LRU-order context a restore needs to rebuild the table exactly.
struct FlowRecord {
  net::FlowKey key;
  std::uint64_t first_ts_usec = 0;
  std::uint64_t last_ts_usec = 0;
  std::uint32_t packets = 0;
  std::uint32_t feature_packets = 0;
  bool classified = false;
  std::vector<float> feature_sum;  // feature_dim floats
};

/// Read-only view of one resident or just-evicted flow.
struct FlowView {
  net::FlowKey key;
  std::uint64_t first_ts_usec = 0;
  std::uint64_t last_ts_usec = 0;
  std::uint32_t packets = 0;          // all packets the flow absorbed
  std::uint32_t feature_packets = 0;  // packets folded into the feature sum
  bool classified = false;            // already labelled at first-N
  const float* feature_sum = nullptr; // feature_dim floats; mean = sum/fp
};

class ShardedFlowTable {
 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFF;

  explicit ShardedFlowTable(FlowTableConfig cfg);

  [[nodiscard]] const FlowTableConfig& config() const { return cfg_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t shard_capacity() const { return per_shard_cap_; }
  /// Bytes per resident flow (slot + feature accumulator).
  [[nodiscard]] std::size_t bytes_per_flow() const;
  /// Hard upper bound on resident flow-state bytes.
  [[nodiscard]] std::size_t bytes_cap() const;
  /// Resident flow-state bytes right now (live slots x bytes_per_flow).
  [[nodiscard]] std::size_t bytes_resident() const;

  /// Shard a key belongs to — a pure function of the key.
  [[nodiscard]] std::size_t shard_of(const net::FlowKey& key) const {
    return net::FlowKeyHash{}(key) % shards_.size();
  }

  enum class TouchStatus : std::uint8_t {
    kExisting,     // packet joined a resident flow
    kCreated,      // new flow admitted
    kNotAdmitted,  // flow absent and admission disabled (shed ladder)
    kFull,         // flow absent and the shard is at capacity
  };

  struct TouchResult {
    TouchStatus status = TouchStatus::kNotAdmitted;
    std::uint32_t slot = kNil;
    /// The feature sum froze with this packet (feature_packets hit
    /// classify_at and the flow was not yet classified).
    bool ready = false;
  };

  /// Folds one packet into its flow: bumps timestamps/counts, accumulates
  /// `features` (feature_dim floats) while under classify_at, moves the
  /// flow to the LRU head. `admit_new` false refuses to create new flows.
  TouchResult touch(std::size_t shard, const net::FlowKey& key,
                    std::uint64_t ts_usec, const float* features,
                    bool admit_new);

  /// Marks a resident flow as classified (it stays resident and keeps
  /// absorbing packets, but will not be re-scored at eviction).
  void mark_classified(std::size_t shard, std::uint32_t slot);

  /// View of a resident slot. Only valid under the guarantee that no other
  /// thread evicts this shard between touch() and the read — the engine
  /// reads inside the same shard fold that touched the flow.
  [[nodiscard]] FlowView view(std::size_t shard, std::uint32_t slot) const;

  using EvictFn = std::function<void(const FlowView&)>;

  /// Evicts flows whose last activity is older than `now - idle_usec`,
  /// walking from the LRU tail. Returns the number evicted.
  std::size_t evict_idle(std::size_t shard, std::uint64_t now_usec,
                         std::uint64_t idle_usec, const EvictFn& fn);

  /// Early-classification sweep (shed ladder stage 2): scans up to
  /// `max_scan` entries from the LRU tail and evicts those carrying at
  /// least `min_packets` feature packets, until the shard's live count
  /// drops to `target_live`. Returns the number evicted.
  std::size_t evict_ready(std::size_t shard, std::size_t target_live,
                          std::size_t min_packets, std::size_t max_scan,
                          const EvictFn& fn);

  /// Evicts the LRU tail unconditionally (shed ladder stage 3 replacement).
  /// False when the shard is empty.
  bool evict_tail(std::size_t shard, const EvictFn& fn);

  /// Evicts everything (flush). Returns the number evicted.
  std::size_t evict_all(std::size_t shard, const EvictFn& fn);

  [[nodiscard]] std::size_t live(std::size_t shard) const;
  [[nodiscard]] std::size_t live_total() const;

  /// Visits every resident flow of a shard in LRU tail→head order (coldest
  /// first) under the shard lock. Replaying the records through
  /// restore_flow() in the same order rebuilds the identical LRU chain,
  /// because each restore inserts at the head.
  void for_each_lru(std::size_t shard,
                    const std::function<void(const FlowRecord&)>& fn) const;

  /// Re-inserts a snapshotted flow at the LRU head (so a tail→head replay
  /// reproduces the original order). False when the shard is at capacity,
  /// the key is already resident, or the record's feature width disagrees
  /// with the table's — a config-mismatch restore must fail loudly, not
  /// truncate accumulators.
  bool restore_flow(std::size_t shard, const FlowRecord& record);

 private:
  struct Slot {
    net::FlowKey key;
    std::uint64_t first_ts_usec = 0;
    std::uint64_t last_ts_usec = 0;
    std::uint32_t packets = 0;
    std::uint32_t feature_packets = 0;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
    bool live = false;
    bool classified = false;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<net::FlowKey, std::uint32_t, net::FlowKeyHash> index;
    std::vector<Slot> slots;         // grows to per_shard_cap_, never beyond
    std::vector<float> features;     // per_shard_cap_ x feature_dim slab
    std::vector<std::uint32_t> free; // recycled slot indices
    std::uint32_t lru_head = kNil;   // most recently touched
    std::uint32_t lru_tail = kNil;   // coldest
    std::size_t live = 0;
  };

  void lru_unlink(Shard& s, std::uint32_t i);
  void lru_push_head(Shard& s, std::uint32_t i);
  FlowView view_locked(const Shard& s, std::uint32_t i) const;
  void release_locked(Shard& s, std::uint32_t i);
  /// Evicts slot i through `fn` (caller holds the shard lock).
  void evict_locked(Shard& s, std::uint32_t i, const EvictFn& fn);

  FlowTableConfig cfg_;
  std::size_t per_shard_cap_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace sugar::serve
