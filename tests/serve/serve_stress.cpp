// Concurrency stress for the serve engine, intended for a TSan build
// (-DSUGAR_SANITIZE=thread; `ctest -L tsan`) but also correct — and run —
// under plain builds. Exercises the race-prone seams: many producer
// threads writing into the ingest ring while the pump thread swaps batches
// out of it and runs rounds, stats() snapshotters reading mid-round, an
// external evictor sweeping idle flows, verdict harvesting, and a
// checkpointer walking the ring in save_snapshot().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/engine.h"
#include "trafficgen/datasets.h"

namespace sugar::serve {
namespace {

std::vector<net::Packet> sample_stream() {
  trafficgen::GenOptions opts;
  opts.seed = 404;
  opts.flows_per_class = 3;
  opts.spurious_fraction = 0.05;
  return trafficgen::generate_iscx_vpn(opts).packets;
}

std::shared_ptr<const FlowClassifier> zero_classifier() {
  FlowFeatureConfig fcfg;
  return std::make_shared<HeuristicClassifier>(
      flow_feature_dim(fcfg), 2, [](const float*) { return 0; });
}

ServeConfig stress_config() {
  ServeConfig cfg;
  cfg.table.shards = 4;
  cfg.table.max_flows = 64;  // tight: eviction paths run concurrently
  cfg.queue_capacity = 256;
  cfg.batch_size = 64;
  cfg.record_verdicts = true;
  cfg.max_recorded_verdicts = 1 << 12;
  cfg.watchdog_timeout_s = 30;  // watchdog thread active but quiet
  return cfg;
}

// Producers offering packets vs the pump loop vs stats snapshotters vs an
// idle evictor vs a verdict harvester vs a checkpointer: the full
// concurrent surface of the engine, checked for data races (TSan) and for
// the accounting identity packets_offered == packets_rejected +
// packets_processed at quiesce.
TEST(ServeStress, ProducersPumpSnapshotsAndEvictor) {
  const auto stream = sample_stream();
  ServeEngine engine(stress_config(), zero_classifier());

  constexpr int kProducers = 4;
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> offered{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int round = 0; round < 6; ++round) {
        for (std::size_t i = p; i < stream.size(); i += kProducers) {
          engine.offer(stream[i]);
          offered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::thread pumper([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (engine.pump() == 0) std::this_thread::yield();
    }
    engine.drain();
  });

  std::thread snapshotter([&] {
    ServeCounters prev;
    while (!done.load(std::memory_order_acquire)) {
      const ServeStats stats = engine.stats();
      ASSERT_TRUE(prev.monotone_le(stats.counters));
      prev = stats.counters;
      ASSERT_LE(stats.gauges.table_bytes, stats.gauges.table_bytes_cap);
      std::this_thread::yield();
    }
  });

  std::thread evictor([&] {
    std::uint64_t now = 0;
    while (!done.load(std::memory_order_acquire)) {
      now += 500'000;
      engine.evict_idle_now(now);
      std::this_thread::yield();
    }
  });

  std::thread harvester([&] {
    std::size_t harvested = 0;
    while (!done.load(std::memory_order_acquire)) {
      harvested += engine.take_verdicts().size();
      std::this_thread::yield();
    }
  });

  // save_snapshot() quiesces rounds but not offer(): it walks the ring
  // under the queue lock while producers keep writing into it.
  std::thread checkpointer([&] {
    const std::string path = ::testing::TempDir() + "/sugar_serve_stress.snap";
    do {
      EXPECT_TRUE(engine.save_snapshot(path).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } while (!done.load(std::memory_order_acquire));
  });

  for (auto& t : producers) t.join();
  // Producers finished: let the pump drain the residue, then quiesce.
  done.store(true, std::memory_order_release);
  pumper.join();
  snapshotter.join();
  evictor.join();
  harvester.join();
  checkpointer.join();
  engine.flush();

  const ServeStats stats = engine.stats();
  EXPECT_EQ(stats.counters.packets_offered, offered.load());
  EXPECT_EQ(stats.counters.packets_offered,
            stats.counters.packets_rejected + stats.counters.packets_processed);
  EXPECT_EQ(stats.gauges.current_flows, 0u);
  EXPECT_EQ(stats.counters.watchdog_stalls, 0u);
  EXPECT_GE(engine.recovery().snapshots_saved, 1u);
  EXPECT_EQ(engine.recovery().save_failures, 0u);
}

// Concurrent offer() against destruction-adjacent teardown: engines built
// and torn down repeatedly while a watchdog thread is live must not race
// in the dtor path.
TEST(ServeStress, RepeatedEngineLifecycleWithWatchdog) {
  const auto stream = sample_stream();
  for (int round = 0; round < 8; ++round) {
    ServeConfig cfg = stress_config();
    cfg.watchdog_timeout_s = 0.05;  // fast watchdog ticks during teardown
    ServeEngine engine(cfg, zero_classifier());
    for (std::size_t i = 0; i < stream.size() && i < 512; ++i)
      engine.offer(stream[i]);
    engine.pump();
  }  // dtor joins the watchdog with work still queued
}

}  // namespace
}  // namespace sugar::serve
