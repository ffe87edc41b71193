// Serve-side health accounting: a fixed-bucket log2 latency histogram and
// the ServeStats snapshot the engine exports. The stats contract is the
// robustness headline — every counter is monotone for the engine's
// lifetime (json_check verifies this over the bench's snapshot timeline),
// gauges are point-in-time, and everything stays finite and well-defined
// under overload and fault injection.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/artifact.h"

namespace sugar::serve {

/// Power-of-two latency buckets: bucket b counts samples with
/// 2^(b-1) <= ns < 2^b (bucket 0 is [0,1)). 64 buckets cover every
/// representable duration, so record() can never overflow or allocate —
/// safe to call on the per-packet hot path. Bucket and total counts
/// accumulate saturating at UINT64_MAX: a chaos-injected latency storm can
/// pin the top of a bucket but can never wrap it around and silently
/// reshape the percentiles.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(std::uint64_t ns);
  void merge(const LatencyHistogram& other);

  /// Bucket a sample lands in: bit_width(ns) clamped to the top bucket.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t ns);

  [[nodiscard]] std::uint64_t count() const { return total_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t b) const {
    return counts_[b];
  }
  /// Quantile estimate (geometric bucket midpoint); 0 when empty.
  [[nodiscard]] double quantile_ns(double q) const;

  /// Raw bucket array (snapshot serialization).
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& buckets() const {
    return counts_;
  }
  /// Replaces the whole histogram (snapshot restore); total is recomputed
  /// (saturating) from the buckets so the two can never disagree.
  void restore(const std::array<std::uint64_t, kBuckets>& counts);

  /// {count, p50_us, p90_us, p99_us, p999_us}.
  [[nodiscard]] core::Json to_json() const;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Monotone counters. Split from the gauges so consumers (json_check, the
/// bench's snapshot timeline) can assert monotonicity mechanically.
struct ServeCounters {
  // Ingest.
  std::uint64_t packets_offered = 0;       // offer() calls
  std::uint64_t packets_rejected = 0;      // bounded-queue backpressure drops
  std::uint64_t packets_processed = 0;     // drained through a round
  std::uint64_t packets_malformed = 0;     // parser rejected the frame
  std::uint64_t packets_keyless = 0;       // no 5-tuple (ARP, ICMP, ...)
  std::uint64_t packets_shed_new_flow = 0; // ladder stage >= 1 drops
  // Flow table.
  std::uint64_t flows_created = 0;
  std::uint64_t flows_rejected_full = 0;   // shard full below ladder stage 3
  std::uint64_t evicted_idle = 0;
  std::uint64_t evicted_early = 0;         // ladder stage 2 early-classify
  std::uint64_t evicted_sampled = 0;       // ladder stage 3 LRU replacement
  std::uint64_t evicted_flush = 0;
  // Classification.
  std::uint64_t classified_at_n = 0;       // reached first-N while resident
  std::uint64_t classified_on_evict = 0;
  std::uint64_t evicted_unclassified = 0;  // too short to classify
  std::uint64_t verdicts_dropped = 0;      // verdict ring hit its cap
  // Shed ladder / supervision.
  std::uint64_t shed_stage_enters = 0;     // upward stage transitions
  std::uint64_t shed_stage_exits = 0;      // downward stage transitions
  std::uint64_t rounds = 0;                // pump() batches completed
  std::uint64_t watchdog_stalls = 0;
  // Watchdog escalation ladder (zero unless the watchdog is enabled, so
  // they never perturb the bit-identity contract).
  std::uint64_t watchdog_quarantines = 0;  // shards routed to the fallback
  std::uint64_t watchdog_recoveries = 0;   // quarantines lifted
  std::uint64_t watchdog_round_aborts = 0; // forced round restarts
  std::uint64_t packets_requeued = 0;      // re-enqueued by an aborted round
  std::uint64_t fallback_classified = 0;   // verdicts from the fallback path

  void merge(const ServeCounters& other);
  [[nodiscard]] core::Json to_json() const;
  /// True when every counter of `later` is >= the matching one here.
  [[nodiscard]] bool monotone_le(const ServeCounters& later) const;

  /// Counter values in declaration order (snapshot serialization). The
  /// field table in stats.cpp drives this, so a new counter is picked up
  /// automatically.
  [[nodiscard]] std::vector<std::uint64_t> to_values() const;
  /// Inverse of to_values(); false when `values` has the wrong arity (a
  /// snapshot from a different counter-set version).
  bool from_values(const std::vector<std::uint64_t>& values);
};

/// Point-in-time gauges (not monotone).
struct ServeGauges {
  std::uint64_t current_flows = 0;
  std::uint64_t peak_flows = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t table_bytes = 0;       // resident flow-state bound
  std::uint64_t table_bytes_cap = 0;   // hard bound from the config
  std::uint64_t shed_stage = 0;        // current ladder stage (0..3)
  std::uint64_t virtual_now_usec = 0;  // stream time the engine has reached

  [[nodiscard]] core::Json to_json() const;
};

/// One engine snapshot: counters + gauges + latency histogram.
struct ServeStats {
  ServeCounters counters;
  ServeGauges gauges;
  LatencyHistogram latency;

  [[nodiscard]] core::Json to_json() const;
};

}  // namespace sugar::serve
