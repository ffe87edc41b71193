// ServeEngine behaviour tests: ingest backpressure, first-N classification
// matching the offline featurizer bit-for-bit, idle eviction on stream
// virtual time, the shed ladder under overload, flush, the fault-injection
// matrix (every sequence fault at calm and overload pressure must complete
// with consistent accounting), the watchdog detecting a stuck shard, and
// the ingest ring (wrap-around, requeue across the wrap, zero sizes).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "ml/forest.h"
#include "net/fault.h"
#include "serve/classifier.h"
#include "serve/engine.h"
#include "serve/flow_features.h"
#include "trafficgen/datasets.h"

namespace sugar::serve {
namespace {

std::shared_ptr<const FlowClassifier> zero_classifier() {
  FlowFeatureConfig fcfg;
  return std::make_shared<HeuristicClassifier>(flow_feature_dim(fcfg), 2,
                                               [](const float*) { return 0; });
}

std::vector<net::Packet> sample_stream(std::size_t flows_per_class = 2,
                                       double spurious = 0.0) {
  trafficgen::GenOptions opts;
  opts.seed = 31;
  opts.flows_per_class = flows_per_class;
  opts.spurious_fraction = spurious;
  return trafficgen::generate_iscx_vpn(opts).packets;
}

ServeConfig small_config() {
  ServeConfig cfg;
  cfg.table.shards = 4;
  cfg.table.max_flows = 256;
  cfg.queue_capacity = 64;
  cfg.batch_size = 32;
  cfg.record_verdicts = true;
  return cfg;
}

/// Accounting identity that must hold after any drain+flush: every offered
/// packet is either rejected at the queue or processed, and every created
/// flow left through exactly one eviction path or the final flush.
void expect_consistent(const ServeStats& s) {
  EXPECT_EQ(s.counters.packets_offered,
            s.counters.packets_rejected + s.counters.packets_processed);
  EXPECT_EQ(s.counters.flows_created,
            s.counters.evicted_idle + s.counters.evicted_early +
                s.counters.evicted_sampled + s.counters.evicted_flush +
                s.gauges.current_flows);
  EXPECT_LE(s.gauges.table_bytes, s.gauges.table_bytes_cap);
}

// The serve verdict is the batch verdict: a forest frozen behind the serve
// interface classifies every row as RandomForest::predict does. Random
// labels and an even tree count make split votes and ties common, and 300
// classes is past any fixed-size tally.
TEST(ServeEngine, ForestVerdictEqualsBatchPredict) {
  constexpr std::size_t kRows = 1200, kCols = 6;
  for (const int classes : {3, 12, 300}) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(classes));
    std::normal_distribution<float> feature(0.0f, 1.0f);
    std::uniform_int_distribution<int> label(0, classes - 1);
    ml::Matrix x(kRows, kCols);
    std::vector<int> y(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      y[i] = label(rng);
      for (std::size_t f = 0; f < kCols; ++f) x(i, f) = feature(rng);
    }
    ml::ForestConfig cfg;
    cfg.num_trees = 4;
    cfg.tree.features_per_split = 3;
    const auto serving = fit_forest_classifier(x, y, classes, cfg);
    ml::RandomForest batch(cfg);
    batch.fit(x, y, classes);
    const std::vector<int> pred = batch.predict(x);
    std::size_t differ = 0;
    for (std::size_t i = 0; i < kRows; ++i)
      if (serving->classify(x.row(i)) != pred[i]) ++differ;
    EXPECT_EQ(differ, 0u) << classes << " classes";
  }
}

TEST(ServeEngine, OfferPumpClassifiesFlows) {
  const auto stream = sample_stream();
  ServeEngine engine(small_config(), zero_classifier());
  for (const auto& pkt : stream) {
    if (!engine.offer(pkt)) engine.pump();
    // Re-offer after pump: the queue has room again.
  }
  engine.drain();
  engine.flush();

  const auto stats = engine.stats();
  EXPECT_GT(stats.counters.packets_processed, 0u);
  EXPECT_GT(stats.counters.flows_created, 0u);
  EXPECT_GT(stats.counters.classified_at_n + stats.counters.classified_on_evict,
            0u);
  EXPECT_EQ(stats.gauges.current_flows, 0u);  // flush emptied the table
  const auto verdicts = engine.take_verdicts();
  EXPECT_EQ(verdicts.size(),
            stats.counters.classified_at_n + stats.counters.classified_on_evict);
  for (const auto& v : verdicts) EXPECT_EQ(v.label, 0);
}

TEST(ServeEngine, BackpressureIsExplicit) {
  ServeConfig cfg = small_config();
  cfg.queue_capacity = 8;
  const auto stream = sample_stream();
  ASSERT_GT(stream.size(), 16u);
  ServeEngine engine(cfg, zero_classifier());

  std::size_t accepted = 0, rejected = 0;
  for (std::size_t i = 0; i < 16; ++i)
    (engine.offer(stream[i]) ? accepted : rejected)++;
  EXPECT_EQ(accepted, 8u);
  EXPECT_EQ(rejected, 8u);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.counters.packets_offered, 16u);
  EXPECT_EQ(stats.counters.packets_rejected, 8u);
  EXPECT_EQ(stats.gauges.queue_depth, 8u);
  EXPECT_EQ(stats.gauges.peak_queue_depth, 8u);
}

TEST(ServeEngine, FirstNVerdictMatchesOfflineFeatures) {
  // The online verdict at first-N must be computed from exactly the mean
  // feature the offline batch featurizer produces for the same prefix —
  // verified by a classifier that captures its input.
  FlowFeatureConfig fcfg;
  const std::size_t dim = flow_feature_dim(fcfg);
  struct Capture {
    std::mutex mu;  // classify() may be called from more than one thread
    std::vector<std::vector<float>> rows;
  };
  auto captured = std::make_shared<Capture>();
  auto classifier = std::make_shared<HeuristicClassifier>(
      dim, 2, [captured, dim](const float* f) {
        std::lock_guard<std::mutex> lock(captured->mu);
        captured->rows.emplace_back(f, f + dim);
        return 1;
      });

  const auto stream = sample_stream();
  ServeConfig cfg = small_config();
  // No overload pressure (queue stays far below the shed watermark) and no
  // mid-stream idle splits: every long-enough flow must classify at exactly
  // its first-N prefix.
  cfg.queue_capacity = 1024;
  cfg.batch_size = 64;
  cfg.idle_timeout_usec = 3'600'000'000ull;
  ServeEngine engine(cfg, classifier);
  for (std::size_t i = 0; i < stream.size();) {
    for (std::size_t k = 0; k < cfg.batch_size && i < stream.size(); ++k, ++i)
      ASSERT_TRUE(engine.offer(stream[i]));
    engine.pump();
  }
  engine.drain();
  engine.flush();
  EXPECT_EQ(engine.stats().counters.packets_shed_new_flow, 0u);

  const auto batch = batch_flow_features(stream, nullptr, fcfg,
                                         /*min_packets=*/cfg.features.first_n);
  ASSERT_FALSE(captured->rows.empty());
  ASSERT_GT(batch.x.rows(), 0u);
  // Every offline first-N feature row must appear bit-identically among the
  // online classifier inputs.
  std::size_t matched = 0;
  for (std::size_t r = 0; r < batch.x.rows(); ++r) {
    const float* want = batch.x.row(r);
    for (const auto& got : captured->rows) {
      if (std::equal(want, want + dim, got.begin(),
                     [](float a, float b) { return a == b; })) {
        ++matched;
        break;
      }
    }
  }
  EXPECT_EQ(matched, batch.x.rows());
}

TEST(ServeEngine, IdleEvictionUsesStreamTime) {
  ServeConfig cfg = small_config();
  cfg.idle_timeout_usec = 1000;
  const auto stream = sample_stream();
  ServeEngine engine(cfg, zero_classifier());

  // Feed the first flows, then a packet far in the future: the idle sweep
  // at the next round must evict everything older than the timeout.
  for (std::size_t i = 0; i < 16; ++i) {
    while (!engine.offer(stream[i])) engine.pump();
  }
  engine.drain();
  const auto live_before = engine.stats().gauges.current_flows;
  ASSERT_GT(live_before, 0u);

  net::Packet future = stream[16];
  future.ts_usec = engine.stats().gauges.virtual_now_usec + 10'000'000;
  ASSERT_TRUE(engine.offer(future));
  engine.drain();
  const auto stats = engine.stats();
  EXPECT_GT(stats.counters.evicted_idle, 0u);
  EXPECT_LT(stats.gauges.current_flows, live_before + 1);
}

TEST(ServeEngine, EvictIdleNowSweepsAllShards) {
  ServeConfig cfg = small_config();
  cfg.idle_timeout_usec = 1000;
  const auto stream = sample_stream();
  ServeEngine engine(cfg, zero_classifier());
  for (std::size_t i = 0; i < 32; ++i) {
    while (!engine.offer(stream[i])) engine.pump();
  }
  engine.drain();
  ASSERT_GT(engine.stats().gauges.current_flows, 0u);

  const auto evicted =
      engine.evict_idle_now(engine.stats().gauges.virtual_now_usec + 1'000'000);
  EXPECT_GT(evicted, 0u);
  EXPECT_EQ(engine.stats().gauges.current_flows, 0u);
  EXPECT_EQ(engine.stats().counters.evicted_idle, evicted);
}

TEST(ServeEngine, ShedLadderEngagesUnderOverload) {
  // A tiny table and queue under a firehose: the ladder must step up, shed
  // observably, and keep the hard bounds.
  ServeConfig cfg;
  cfg.table.shards = 2;
  cfg.table.max_flows = 16;
  cfg.queue_capacity = 64;
  cfg.batch_size = 16;
  cfg.record_verdicts = true;
  const auto stream = sample_stream(6, 0.05);
  ServeEngine engine(cfg, zero_classifier());

  // Offer 4x faster than one pump can drain.
  std::size_t i = 0;
  while (i < stream.size()) {
    for (std::size_t k = 0; k < 4 * cfg.batch_size && i < stream.size(); ++k)
      engine.offer(stream[i++]);
    engine.pump();
  }
  engine.drain();
  engine.flush();

  const auto stats = engine.stats();
  EXPECT_GT(stats.counters.packets_rejected, 0u);  // stage-0 backpressure
  EXPECT_GT(stats.counters.shed_stage_enters, 0u);
  EXPECT_GT(stats.counters.packets_shed_new_flow +
                stats.counters.flows_rejected_full +
                stats.counters.evicted_early + stats.counters.evicted_sampled,
            0u);
  EXPECT_LE(stats.gauges.peak_flows, cfg.table.max_flows + cfg.table.shards);
  expect_consistent(stats);
}

TEST(ServeEngine, FaultMatrixStaysConsistent) {
  const auto base = sample_stream(3, 0.05);
  for (auto fault : {net::SequenceFault::ReorderWindow,
                     net::SequenceFault::DuplicateDelivery,
                     net::SequenceFault::TruncateMidFlow}) {
    net::FaultInjector inj(17);
    const auto mutated = inj.mutate_sequence(base, fault);
    for (const std::size_t per_round : {16u, 128u}) {  // calm and overload
      ServeConfig cfg;
      cfg.table.shards = 2;
      cfg.table.max_flows = 32;
      cfg.queue_capacity = 64;
      cfg.batch_size = 32;
      ServeEngine engine(cfg, zero_classifier());
      std::size_t i = 0;
      while (i < mutated.size()) {
        for (std::size_t k = 0; k < per_round && i < mutated.size(); ++k)
          engine.offer(mutated[i++]);
        engine.pump();
      }
      engine.drain();
      engine.flush();
      const auto stats = engine.stats();
      EXPECT_GT(stats.counters.packets_processed, 0u)
          << net::to_string(fault) << " per_round=" << per_round;
      expect_consistent(stats);
    }
  }
}

TEST(ServeEngine, MonotoneCountersAcrossSnapshots) {
  const auto stream = sample_stream();
  ServeEngine engine(small_config(), zero_classifier());
  ServeCounters prev;
  for (const auto& pkt : stream) {
    if (!engine.offer(pkt)) {
      engine.pump();
      const auto now = engine.stats().counters;
      EXPECT_TRUE(prev.monotone_le(now));
      prev = now;
    }
  }
  engine.drain();
  engine.flush();
  EXPECT_TRUE(prev.monotone_le(engine.stats().counters));
}

TEST(ServeEngine, WatchdogFlagsStuckShard) {
  ServeConfig cfg = small_config();
  cfg.watchdog_timeout_s = 0.2;
  std::atomic<bool> stall{true};
  cfg.shard_hook = [&](std::size_t shard) {
    if (shard == 0 && stall.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
      stall.store(false);  // stall exactly one round
    }
  };
  const auto stream = sample_stream();
  ServeEngine engine(cfg, zero_classifier());
  for (std::size_t i = 0; i < 32 && i < stream.size(); ++i)
    engine.offer(stream[i]);
  engine.drain();
  EXPECT_GE(engine.stats().counters.watchdog_stalls, 1u);

  // A healthy engine with the same watchdog reports nothing.
  ServeConfig healthy = small_config();
  healthy.watchdog_timeout_s = 5.0;
  ServeEngine engine2(healthy, zero_classifier());
  for (std::size_t i = 0; i < 32 && i < stream.size(); ++i)
    engine2.offer(stream[i]);
  engine2.drain();
  EXPECT_EQ(engine2.stats().counters.watchdog_stalls, 0u);
}

TEST(ServeEngine, VerdictCapCountsDrops) {
  ServeConfig cfg = small_config();
  cfg.record_verdicts = true;
  cfg.max_recorded_verdicts = 2;
  const auto stream = sample_stream();
  ServeEngine engine(cfg, zero_classifier());
  for (const auto& pkt : stream) {
    while (!engine.offer(pkt)) engine.pump();
  }
  engine.drain();
  engine.flush();
  const auto stats = engine.stats();
  EXPECT_EQ(engine.take_verdicts().size(), 2u);
  EXPECT_GT(stats.counters.verdicts_dropped, 0u);
}

// A label that depends on every accumulated feature, so a stale or
// misplaced frame or feature row changes some verdict.
std::shared_ptr<const FlowClassifier> feature_classifier() {
  FlowFeatureConfig fcfg;
  const std::size_t dim = flow_feature_dim(fcfg);
  return std::make_shared<HeuristicClassifier>(
      dim, 13, [dim](const float* f) {
        double sum = 0;
        for (std::size_t d = 0; d < dim; ++d) sum += f[d] * (d + 1);
        return static_cast<int>(std::fmod(std::fabs(sum), 13.0));
      });
}

/// A config whose verdicts depend only on each flow's own packets: no idle
/// eviction, shed watermarks out of reach, a table with room for every
/// flow, and no fallback classifier. No flow reaches first-N, so each is
/// classified at flush over all of its packets, and a lost or repeated
/// packet changes some verdict.
ServeConfig ring_config(std::size_t queue_capacity, std::size_t batch_size) {
  ServeConfig cfg;
  cfg.features.first_n = std::size_t{1} << 30;
  cfg.table.shards = 4;
  cfg.table.max_flows = 4096;
  cfg.queue_capacity = queue_capacity;
  cfg.batch_size = batch_size;
  cfg.idle_timeout_usec = 1ull << 62;
  cfg.queue_hi = cfg.queue_lo = 4.0;
  cfg.table_hi = cfg.table_lo = 4.0;
  cfg.record_verdicts = true;
  return cfg;
}

/// Every field of each verdict, sorted by flow key: rounds order verdicts
/// differently, a flow's own verdict must not change.
using VerdictRow = std::tuple<net::FlowKey, int, std::uint32_t, std::uint32_t,
                              VerdictReason, std::uint64_t, std::uint64_t>;
std::vector<VerdictRow> per_flow(const std::vector<Verdict>& verdicts) {
  std::vector<VerdictRow> rows;
  for (const Verdict& v : verdicts)
    rows.emplace_back(v.key, v.label, v.packets, v.feature_packets, v.reason,
                      v.first_ts_usec, v.last_ts_usec);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Per-flow verdicts of one engine that takes the whole stream in a single
/// batch: the reference every ring schedule must reproduce.
std::vector<VerdictRow> one_batch_verdicts(
    const std::vector<net::Packet>& stream) {
  ServeEngine engine(ring_config(stream.size(), stream.size()),
                     feature_classifier());
  for (const auto& pkt : stream) EXPECT_TRUE(engine.offer(pkt));
  EXPECT_EQ(engine.pump(), stream.size());
  engine.flush();
  return per_flow(engine.take_verdicts());
}

// Coprime capacity and batch (ring of 12 slots). The queue is mostly kept
// full, so the head advances 5 slots a round and wraps over a hundred
// times; extra pumps at random points drain partial batches and empty the
// ring, which resets the head. Every flow's verdict equals the one-batch
// reference.
TEST(ServeEngine, RingWrapKeepsPerFlowVerdicts) {
  const auto stream = sample_stream(3, 0.05);
  constexpr std::size_t kCapacity = 7, kBatch = 5;
  ASSERT_GT(stream.size(), 100 * (kCapacity + kBatch));
  ServeEngine engine(ring_config(kCapacity, kBatch), feature_classifier());
  std::mt19937 rng(7);
  std::bernoulli_distribution pump_now(0.1);
  for (const auto& pkt : stream) {
    while (!engine.offer(pkt)) engine.pump();
    if (pump_now(rng)) engine.pump();
  }
  engine.drain();
  engine.flush();
  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.counters.packets_processed, stream.size());
  EXPECT_EQ(stats.counters.packets_shed_new_flow, 0u);
  EXPECT_EQ(stats.counters.evicted_idle, 0u);
  EXPECT_LE(stats.gauges.peak_queue_depth, kCapacity);
  expect_consistent(stats);
  const auto verdicts = per_flow(engine.take_verdicts());
  EXPECT_FALSE(verdicts.empty());
  EXPECT_EQ(verdicts, one_batch_verdicts(stream));
}

// A watchdog abort whose requeue crosses the ring's wrap point and pushes
// the queue past capacity. Ring of 64 slots (capacity 40 + batch 24): two
// rounds leave the head at slot 48, the stalled round drains packets
// 48..71 from slots 48..63 and 0..7, offers refill slots 24..47 while it
// is stuck, and the abort pushes the batch back in front of the head at
// slot 8 — through slot 0 to slot 63 and below. Inline, the abort requeues
// the stuck shard's packets and every later shard's: with shard 0 stuck,
// every keyed packet of the batch. A truncated frame in the batch is
// consumed as malformed, so the requeue is not the whole batch.
TEST(ServeEngine, WatchdogRequeueAcrossRingWrap) {
  auto stream = sample_stream(3, 0.05);
  stream[60].data.resize(10);
  constexpr std::size_t kCapacity = 40, kBatch = 24;
  ServeConfig cfg = ring_config(kCapacity, kBatch);
  cfg.watchdog_timeout_s = 0.04;
  std::size_t pos = 0;
  bool stall_armed = false;
  ServeEngine* self = nullptr;
  // The hook runs on this thread, inside pump(): shard 0 refills the ring,
  // then holds its round until the watchdog has aborted it.
  cfg.shard_hook = [&](std::size_t shard) {
    if (shard != 0 || !stall_armed) return;
    stall_armed = false;
    while (pos < stream.size() && self->offer(stream[pos])) ++pos;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < until &&
           self->stats().counters.watchdog_round_aborts == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  ServeEngine engine(cfg, feature_classifier());
  self = &engine;

  const auto offer_n = [&](std::size_t k) {
    for (; k > 0 && pos < stream.size(); --k, ++pos)
      ASSERT_TRUE(engine.offer(stream[pos]));
  };
  offer_n(kCapacity);
  ASSERT_EQ(engine.pump(), kBatch);  // head 24, 16 queued
  offer_n(kBatch);
  ASSERT_EQ(engine.pump(), kBatch);  // head 48, 16 queued
  offer_n(kBatch);                   // tail wraps to slots 0..23
  stall_armed = true;
  ASSERT_EQ(engine.pump(), kBatch);  // aborted: the batch goes back
  const ServeStats aborted = engine.stats();
  ASSERT_EQ(aborted.counters.watchdog_round_aborts, 1u);
  ASSERT_GE(aborted.counters.packets_malformed, 1u);
  EXPECT_EQ(aborted.counters.packets_requeued,
            kBatch - aborted.counters.packets_malformed -
                aborted.counters.packets_keyless);
  // More than the head's 8 slots came back, so the requeue wrapped, on top
  // of a queue the stalled round's offers had filled to capacity.
  EXPECT_GT(aborted.counters.packets_requeued, 8u);
  EXPECT_EQ(aborted.gauges.queue_depth,
            kCapacity + aborted.counters.packets_requeued);

  while (pos < stream.size()) {
    while (pos < stream.size() && engine.offer(stream[pos])) ++pos;
    engine.pump();
  }
  engine.drain();
  engine.flush();
  const ServeStats stats = engine.stats();
  EXPECT_GE(stats.counters.watchdog_quarantines, 1u);
  EXPECT_EQ(stats.counters.packets_processed,
            stats.counters.packets_offered - stats.counters.packets_rejected);
  EXPECT_EQ(stats.counters.packets_processed, stream.size());
  EXPECT_EQ(per_flow(engine.take_verdicts()), one_batch_verdicts(stream));
}

// Zero-sized queues or batches construct, reject or no-op, and never index
// the ring (an index modulo a zero-slot ring would be undefined behaviour;
// run under UBSan to check). A snapshot round trip walks what was queued.
TEST(ServeEngine, ZeroCapacityOrBatchNeverIndexesTheRing) {
  const auto stream = sample_stream();
  const std::pair<std::size_t, std::size_t> sizes[] = {{0, 0}, {0, 32}, {8, 0}};
  for (const auto& [capacity, batch] : sizes) {
    SCOPED_TRACE("capacity " + std::to_string(capacity) + " batch " +
                 std::to_string(batch));
    ServeConfig cfg = small_config();
    cfg.queue_capacity = capacity;
    cfg.batch_size = batch;
    ServeEngine engine(cfg, zero_classifier());
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < 16; ++i) accepted += engine.offer(stream[i]);
    EXPECT_EQ(accepted, std::min<std::size_t>(capacity, 16));
    EXPECT_EQ(engine.pump(), 0u);
    engine.drain();
    engine.flush();
    EXPECT_EQ(engine.evict_idle_now(1ull << 40), 0u);
    ServeStats stats = engine.stats();
    EXPECT_EQ(stats.counters.packets_rejected, 16 - accepted);
    EXPECT_EQ(stats.counters.packets_processed, 0u);
    EXPECT_EQ(stats.gauges.queue_depth, accepted);

    const std::string path = ::testing::TempDir() + "/sugar_ring_zero_" +
                             std::to_string(capacity) + "_" +
                             std::to_string(batch) + ".snap";
    ASSERT_TRUE(engine.save_snapshot(path).ok());
    ServeEngine restored(cfg, zero_classifier());
    ASSERT_TRUE(restored.restore_snapshot(path).ok());
    EXPECT_EQ(restored.queue_depth(), accepted);
    EXPECT_EQ(restored.pump(), 0u);
  }
}

}  // namespace
}  // namespace sugar::serve
