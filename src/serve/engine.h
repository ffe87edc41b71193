// ServeEngine: the online classification pipeline. Packets enter through a
// bounded ingest ring (offer(), thread-safe, explicit backpressure); pump()
// drains one batch and runs a deterministic round on the calling thread —
// parse + featurize, partition by flow-key hash, then fold each shard's
// packets into the ShardedFlowTable in arrival order, shards in ascending
// order, classifying flows at first-N packets and on eviction. A round
// never dispatches to core::ThreadPool: at these batch sizes the wake-ups
// and cross-core frame reads cost more than the work they would split.
//
// Overload control is a three-stage shed ladder evaluated (with hysteresis)
// at every round boundary from queue depth and table occupancy:
//
//   stage 0  accept everything; a full queue still drops at offer()
//            (bounded-memory backpressure, counted packets_rejected)
//   stage 1  drop-newest-flows: packets that would create a new flow are
//            shed; resident flows keep progressing toward first-N
//   stage 2  early-classify: each shard's fold sweeps the LRU tail, evicting
//            (classifying) flows that already carry enough packets,
//            pulling occupancy back under the high watermark
//   stage 3  sample-evict: new flows stay shed, and after the stage-2
//            sweep each shard evicts LRU-tail flows toward the low
//            watermark (classified if eligible, dropped otherwise)
//
// Every transition and every shed decision is counted in ServeStats — the
// engine degrades observably, never silently. Its memory is bounded by the
// ring's queue_capacity + batch_size slots, whose frame buffers are reused
// (with the batch's, at most queue_capacity + 2 x batch_size buffers), plus
// the flow table's slabs.
//
// Determinism: given the same packet sequence and the same offer()/pump()
// schedule, verdicts and every eviction/shed counter are identical at any
// SUGAR_THREADS value — a round runs on one thread, shard assignment
// depends only on the stream, and eviction time is the stream's own
// virtual clock (max packet timestamp seen), never the wall. Only the
// latency histogram and wall-time gauges are non-deterministic.
//
// Supervision: with watchdog_timeout_s > 0 a RunSupervisor-style watchdog
// thread checks that an in-flight round makes progress (per-shard
// heartbeat) and escalates through a ladder instead of hanging silently:
//
//   1x timeout  flag: counters.watchdog_stalls++ and a stderr diagnostic
//   2x timeout  quarantine: every shard still mid-round is marked; its
//               classifications route to cfg.fallback (when present) until
//               the shard completes two clean rounds
//   4x timeout  abort: round_abort_ asks the round to bail; the stuck
//               shard's unprocessed packets and every later shard's are
//               re-queued at the front of the ingest ring in arrival order
//               and re-drained next round
//
// Crash tolerance: save_snapshot()/restore_snapshot() (see snapshot.h)
// checkpoint the full engine state between rounds, so a restored engine
// replaying from the recorded stream position is bit-identical to one that
// never crashed. cfg.chaos (core::ChaosInjector) injects deterministic
// shard stalls, classifier faults and flow-table allocation failures for
// exercising all of the above.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "net/packet.h"
#include "serve/classifier.h"
#include "serve/flow_features.h"
#include "serve/flow_table.h"
#include "serve/snapshot.h"
#include "serve/stats.h"

namespace sugar::core {
class ChaosInjector;
class Io;
}  // namespace sugar::core

namespace sugar::serve {

enum class ShedStage : std::uint8_t {
  kNone = 0,
  kDropNewFlows = 1,
  kEarlyClassify = 2,
  kSampleEvict = 3,
};
const char* to_string(ShedStage s);

enum class VerdictReason : std::uint8_t {
  kFirstN,        // reached classify_at while resident
  kEvictIdle,     // idle timeout
  kEvictEarly,    // shed ladder stage 2
  kEvictSampled,  // shed ladder stage 3 replacement
  kFlush,         // engine flush()
};
const char* to_string(VerdictReason r);

/// One classified flow.
struct Verdict {
  net::FlowKey key;
  int label = -1;
  std::uint32_t packets = 0;
  std::uint32_t feature_packets = 0;
  VerdictReason reason = VerdictReason::kFirstN;
  std::uint64_t first_ts_usec = 0;
  std::uint64_t last_ts_usec = 0;
};

struct ServeConfig {
  FlowTableConfig table;  // feature_dim is overwritten from the featurizer
  FlowFeatureConfig features;
  /// Bounded ingest queue (packets). Full queue => offer() returns false.
  std::size_t queue_capacity = 8192;
  /// Max packets drained per pump() round.
  std::size_t batch_size = 1024;
  /// Flows idle longer than this (stream virtual time) are evicted.
  std::uint64_t idle_timeout_usec = 2'000'000;
  // Shed ladder watermarks (fractions; *_lo gives hysteresis on exit).
  double queue_hi = 0.75;
  double queue_lo = 0.50;
  double table_hi = 0.90;
  double table_lo = 0.75;
  /// Watchdog deadline for one round; 0 disables the watchdog thread.
  double watchdog_timeout_s = 0;
  /// Record per-flow verdicts for retrieval via take_verdicts(). Off by
  /// default so an unattended engine cannot grow without bound.
  bool record_verdicts = false;
  /// Cap on buffered verdicts (overflow counted verdicts_dropped).
  std::size_t max_recorded_verdicts = 1 << 20;
  /// Test hook invoked as each shard's fold starts (stall injection).
  std::function<void(std::size_t shard)> shard_hook;
  /// Degradation target: quarantined shards classify through this instead
  /// of the primary (counted fallback_classified). Null disables routing.
  std::shared_ptr<const FlowClassifier> fallback;
  /// Deterministic fault injection (shard stalls, flow-table allocation
  /// failures). Not owned; must outlive the engine. Null injects nothing.
  core::ChaosInjector* chaos = nullptr;
};

class ServeEngine {
 public:
  ServeEngine(ServeConfig cfg, std::shared_ptr<const FlowClassifier> classifier);
  ~ServeEngine();
  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Enqueues one packet. False (with packets_rejected++) when the bounded
  /// queue is full — the explicit backpressure signal. Thread-safe.
  bool offer(const net::Packet& pkt);

  /// Drains one batch and processes it on the calling thread. Returns
  /// packets processed (0 when the queue was empty). Concurrent pump()
  /// calls serialize. Thread-safe against offer(), stats(),
  /// evict_idle_now() and flush().
  std::size_t pump();

  /// pump() until the queue is empty.
  void drain();

  /// Evicts flows idle at `now_usec` (stream time) across all shards —
  /// the maintenance path a background evictor thread drives. Returns the
  /// number evicted.
  std::size_t evict_idle_now(std::uint64_t now_usec);

  /// Evicts and classifies everything still resident.
  void flush();

  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] ShedStage stage() const {
    return static_cast<ShedStage>(stage_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::size_t queue_depth() const;
  [[nodiscard]] const ServeConfig& config() const { return cfg_; }
  [[nodiscard]] const ShardedFlowTable& table() const { return table_; }

  /// Moves out the recorded verdicts (record_verdicts mode).
  std::vector<Verdict> take_verdicts();

  /// Checkpoints the full engine state (flows + LRU order, accumulators,
  /// counters, queue, verdict buffer, stream position) to `path` via
  /// atomic temp-then-rename. `io` defaults to the real filesystem —
  /// inject core::ChaosIo to exercise disk faults. Quiesces rounds
  /// (takes the pump lock); call it between pumps. Defined in snapshot.cpp.
  SnapshotOutcome save_snapshot(const std::string& path,
                                core::Io* io = nullptr);

  /// Restores a checkpoint into this engine (whose config must match the
  /// snapshot's fingerprint). All-or-nothing: the file is parsed and
  /// validated in full before any state is touched, so a failed restore
  /// leaves the engine exactly as it was (a counted cold start).
  SnapshotOutcome restore_snapshot(const std::string& path,
                                   core::Io* io = nullptr);

  /// Recovery-path bookkeeping (separate from ServeCounters by design).
  [[nodiscard]] RecoveryStats recovery() const;

  /// Opaque replay cursor persisted in snapshots: the harness records how
  /// far into its input stream it has offered packets, and resumes from
  /// here after a restore. The engine itself never interprets it.
  void set_stream_pos(std::uint64_t pos) {
    stream_pos_.store(pos, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t stream_pos() const {
    return stream_pos_.load(std::memory_order_relaxed);
  }

  /// True while shard `s` routes classifications to cfg.fallback.
  [[nodiscard]] bool quarantined(std::size_t s) const {
    return quarantined_[s].load(std::memory_order_relaxed) != 0;
  }

 private:
  /// Flows evicted with fewer feature packets than this go unclassified
  /// (a flow reaching first-N while resident needs only one). The snapshot
  /// config section records it, so a snapshot names the value it ran with.
  static constexpr std::size_t kMinClassifyPackets = 2;
  /// LRU entries the stage-2 sweep scans, and flows the stage-3 sweep
  /// evicts, per shard per round.
  static constexpr std::size_t kEvictScan = 64;

  struct QueueEntry {
    net::Packet pkt;
    std::uint64_t enq_ns = 0;
  };

  /// One round's accumulation, filled shard by shard in ascending order
  /// (so verdicts keep a deterministic order) and merged under stats_mu_.
  struct RoundDelta {
    ServeCounters counters;
    LatencyHistogram latency;
    std::vector<Verdict> verdicts;
    std::vector<std::uint32_t> requeued;  // batch indices an abort skipped
  };

  void process_shard(std::size_t shard, std::uint64_t round_now,
                     ShedStage stage);
  void classify_into(std::size_t shard, const FlowView& v,
                     VerdictReason reason, RoundDelta& delta);
  ShedStage evaluate_stage(std::size_t queued, std::size_t live);
  /// Folds `delta` into stats_ and verdicts_ (caller holds stats_mu_) and
  /// clears it for reuse.
  void merge_delta(RoundDelta& delta);
  /// Ring index of the i-th queued entry (caller holds queue_mu_).
  [[nodiscard]] std::size_t ring_slot(std::size_t i) const {
    const std::size_t j = head_ + i;
    return j < ring_.size() ? j : j - ring_.size();
  }
  /// Copies `pkt` into the tail slot's buffer; the caller holds queue_mu_
  /// and has checked that a slot is free.
  void push_locked(const net::Packet& pkt, std::uint64_t enq_ns);
  void watchdog_loop();

  ServeConfig cfg_;
  std::shared_ptr<const FlowClassifier> classifier_;
  ShardedFlowTable table_;
  std::size_t feature_dim_ = 0;

  // Ingest ring (queue_mu_): queue_capacity + batch_size slots, so an
  // aborted round's requeue always fits. Entry i lives at ring_slot(i).
  // Slot buffers are never freed: offer() assigns into them and pump()
  // swaps them with batch_'s, so frame storage is recycled, not allocated.
  mutable std::mutex queue_mu_;
  std::vector<QueueEntry> ring_;
  std::size_t head_ = 0;   // reset to 0 whenever the ring empties
  std::size_t count_ = 0;
  std::uint64_t peak_queue_depth_ = 0;

  // Round scratch (pump_mu_), reused every round: the drained batch, its
  // keys, parse outcomes and features, per-shard arrival order, and the
  // round's delta.
  std::vector<QueueEntry> batch_;
  std::vector<net::FlowKey> keys_;
  std::vector<std::uint8_t> kinds_;
  std::vector<float> features_;
  std::vector<std::vector<std::uint32_t>> order_;
  RoundDelta delta_;

  // offer()-side counters (atomic: hot path, no round context).
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> rejected_{0};

  // Round-side state (stats_mu_ guards stats_ and verdicts_).
  mutable std::mutex stats_mu_;
  ServeStats stats_;
  std::vector<Verdict> verdicts_;

  std::mutex pump_mu_;  // serializes pump()/flush() rounds and the scratch
  std::atomic<std::uint64_t> virtual_now_usec_{0};
  std::atomic<std::uint32_t> stage_{0};
  std::uint64_t peak_flows_ = 0;  // under stats_mu_

  // Watchdog + escalation ladder.
  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<bool> round_active_{false};
  std::atomic<bool> stop_watchdog_{false};
  std::condition_variable watchdog_cv_;
  std::mutex watchdog_mu_;
  std::thread watchdog_;
  std::vector<std::atomic<std::uint8_t>> shard_active_;   // mid-round markers
  std::vector<std::atomic<std::uint8_t>> quarantined_;    // fallback routing
  std::vector<std::atomic<std::uint32_t>> clean_rounds_;  // toward recovery
  std::atomic<bool> round_abort_{false};  // cooperative round restart

  // Crash tolerance (snapshot.cpp).
  std::atomic<std::uint64_t> stream_pos_{0};
  mutable std::mutex recovery_mu_;
  RecoveryStats recovery_;
};

}  // namespace sugar::serve
