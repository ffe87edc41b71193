// Chaos-engineering surface: deterministic injector streams, the ChaosIo
// disk-fault shim, strict env parsing of the latency budget, the circuit
// breaker's full state machine driven by a latency-scriptable classifier,
// and the watchdog escalation ladder (flag → quarantine → round abort →
// recovery). Built as its own binary (sugar_chaos_tests) under the `chaos`
// ctest label; the ChaosTsan.* subset also runs under the TSan
// configuration as chaos_tsan_smoke.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/chaos.h"
#include "core/io.h"
#include "serve/breaker.h"
#include "serve/engine.h"
#include "trafficgen/datasets.h"

namespace sugar {
namespace {

using core::ChaosConfig;
using core::ChaosInjector;
using core::ChaosIo;
using core::ChaosSite;

/// Sets (or clears, when value is null) an env var for one test body.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~ScopedEnv() {
    if (old_.has_value())
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

std::vector<net::Packet> sample_stream() {
  trafficgen::GenOptions opts;
  opts.seed = 4242;
  opts.flows_per_class = 3;
  opts.spurious_fraction = 0.05;
  return trafficgen::generate_iscx_vpn(opts).packets;
}

std::shared_ptr<const serve::FlowClassifier> cheap_classifier() {
  serve::FlowFeatureConfig fcfg;
  const std::size_t dim = serve::flow_feature_dim(fcfg);
  return std::make_shared<serve::HeuristicClassifier>(
      dim, 4, [](const float*) { return 1; });
}

// ---------------------------------------------------------------------------
// ChaosInjector determinism.

TEST(ChaosInjector, SameSeedSameDecisions) {
  ChaosConfig cfg;
  cfg.seed = 1234;
  cfg.with(ChaosSite::kClassifierFault, 0.3).with(ChaosSite::kIoWriteFail, 0.7);
  ChaosInjector a(cfg), b(cfg);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.should_fire(ChaosSite::kClassifierFault),
              b.should_fire(ChaosSite::kClassifierFault));
    EXPECT_EQ(a.should_fire(ChaosSite::kIoWriteFail),
              b.should_fire(ChaosSite::kIoWriteFail));
  }
  EXPECT_EQ(a.fired(ChaosSite::kClassifierFault),
            b.fired(ChaosSite::kClassifierFault));
  EXPECT_GT(a.fired(ChaosSite::kClassifierFault), 0u);
  EXPECT_LT(a.fired(ChaosSite::kClassifierFault), 1000u);
}

TEST(ChaosInjector, SitesHaveIndependentStreams) {
  ChaosConfig cfg;
  cfg.seed = 77;
  cfg.with(ChaosSite::kShardStall, 0.5).with(ChaosSite::kFlowTableAlloc, 0.5);
  // Sequential per-site draws vs interleaved draws must decide identically:
  // each site owns its own (seed, site, n) stream.
  ChaosInjector seq(cfg), mix(cfg);
  std::vector<bool> seq_a, seq_b, mix_a, mix_b;
  for (int i = 0; i < 200; ++i) seq_a.push_back(seq.should_fire(ChaosSite::kShardStall));
  for (int i = 0; i < 200; ++i) seq_b.push_back(seq.should_fire(ChaosSite::kFlowTableAlloc));
  for (int i = 0; i < 200; ++i) {
    mix_a.push_back(mix.should_fire(ChaosSite::kShardStall));
    mix_b.push_back(mix.should_fire(ChaosSite::kFlowTableAlloc));
  }
  EXPECT_EQ(seq_a, mix_a);
  EXPECT_EQ(seq_b, mix_b);
}

// Fire patterns of the first 64 draws at p = 0.5 (bit n = draw n fired),
// recorded before the injector's mixer moved into core/splitmix.h: the
// (seed, site, draw) -> decision map is part of every chaos replay.
constexpr std::uint64_t kPinnedClassifierFaultFires = 0xd632750cdb1dadb0ull;
constexpr std::uint64_t kPinnedFlowTableAllocFires = 0x0df00a12268d331bull;

TEST(ChaosInjector, FirePatternPinned) {
  ChaosConfig cfg;
  cfg.seed = 2024;
  cfg.with(ChaosSite::kClassifierFault, 0.5).with(ChaosSite::kFlowTableAlloc, 0.5);
  ChaosInjector inj(cfg);
  std::uint64_t fault = 0, alloc = 0;
  for (unsigned n = 0; n < 64; ++n) {
    if (inj.should_fire(ChaosSite::kClassifierFault)) fault |= std::uint64_t{1} << n;
    if (inj.should_fire(ChaosSite::kFlowTableAlloc)) alloc |= std::uint64_t{1} << n;
  }
  EXPECT_EQ(fault, kPinnedClassifierFaultFires);
  EXPECT_EQ(alloc, kPinnedFlowTableAllocFires);
}

TEST(ChaosInjector, ProbabilityEdges) {
  ChaosConfig cfg;
  cfg.seed = 9;
  cfg.with(ChaosSite::kIoRenameFail, 1.0);  // kShardStall stays at 0
  ChaosInjector inj(cfg);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(inj.should_fire(ChaosSite::kIoRenameFail));
    EXPECT_FALSE(inj.should_fire(ChaosSite::kShardStall));
  }
  // A zero probability is how a site is switched off: it never fires and
  // never draws.
  ChaosConfig off = cfg;
  off.with(ChaosSite::kIoRenameFail, 0.0);
  ChaosInjector disabled(off);
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(disabled.should_fire(ChaosSite::kIoRenameFail));
  EXPECT_EQ(disabled.draws(ChaosSite::kIoRenameFail), 0u);
}

// ---------------------------------------------------------------------------
// ChaosIo disk faults.

TEST(ChaosIo, WriteFailLeavesNoFile) {
  ChaosConfig cfg;
  cfg.seed = 5;
  cfg.with(ChaosSite::kIoWriteFail, 1.0);
  ChaosInjector inj(cfg);
  ChaosIo io(inj);
  const std::string path = ::testing::TempDir() + "/chaos_write_fail.bin";
  core::real_io().remove_file(path);
  std::string err;
  EXPECT_FALSE(io.write_file(path, "payload", &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(std::ifstream(path).good());
}

TEST(ChaosIo, ShortWritePersistsStrictPrefix) {
  ChaosConfig cfg;
  cfg.seed = 5;
  cfg.with(ChaosSite::kIoShortWrite, 1.0);
  ChaosInjector inj(cfg);
  ChaosIo io(inj);
  const std::string path = ::testing::TempDir() + "/chaos_short_write.bin";
  std::string err;
  EXPECT_FALSE(io.write_file(path, "0123456789", &err));
  std::string got;
  ASSERT_TRUE(core::real_io().read_file(path, got, nullptr));
  EXPECT_LT(got.size(), 10u);  // a torn write, never the full payload
  EXPECT_EQ(got, std::string("0123456789").substr(0, got.size()));
  core::real_io().remove_file(path);
}

TEST(ChaosIo, RenameFailButReadsPassThrough) {
  ChaosConfig cfg;
  cfg.seed = 5;
  cfg.with(ChaosSite::kIoRenameFail, 1.0);
  ChaosInjector inj(cfg);
  ChaosIo io(inj);
  const std::string a = ::testing::TempDir() + "/chaos_rename_a.bin";
  const std::string b = ::testing::TempDir() + "/chaos_rename_b.bin";
  std::string err;
  ASSERT_TRUE(io.write_file(a, "content", &err));
  EXPECT_FALSE(io.rename_file(a, b, &err));
  std::string got;
  EXPECT_TRUE(io.read_file(a, got, nullptr));  // reads are never injected
  EXPECT_EQ(got, "content");
  core::real_io().remove_file(a);
  core::real_io().remove_file(b);
}

// ---------------------------------------------------------------------------
// Strict env parsing for the breaker's latency budget.

TEST(ChaosEnv, LatencyBudgetOverride) {
  {
    ScopedEnv env("SUGAR_LATENCY_BUDGET_US", "250");
    EXPECT_EQ(serve::BreakerConfig::from_env({}).latency_budget_us, 250u);
  }
  for (const char* bad : {"250us", "", "x", "-1", "2.5"}) {
    ScopedEnv env("SUGAR_LATENCY_BUDGET_US", bad);
    serve::BreakerConfig base;
    base.latency_budget_us = 42;
    EXPECT_EQ(serve::BreakerConfig::from_env(base).latency_budget_us, 42u)
        << "'" << bad << "'";
  }
}

// ---------------------------------------------------------------------------
// Circuit breaker state machine.

/// Primary whose latency is scripted through an atomic: slow mode busy-waits
/// past any reasonable budget, fast mode returns immediately.
class SlowableClassifier final : public serve::FlowClassifier {
 public:
  explicit SlowableClassifier(std::atomic<bool>* slow) : slow_(slow) {}
  [[nodiscard]] std::size_t feature_dim() const override { return 4; }
  [[nodiscard]] int num_classes() const override { return 2; }
  [[nodiscard]] int classify(const float*) const override {
    if (slow_->load(std::memory_order_relaxed))
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return 1;
  }

 private:
  std::atomic<bool>* slow_;
};

serve::BreakerConfig tight_breaker() {
  serve::BreakerConfig cfg;
  cfg.latency_budget_us = 200;
  cfg.failure_threshold = 2;
  cfg.open_cooldown_calls = 2;
  cfg.half_open_successes = 2;
  return cfg;
}

TEST(Breaker, QuietPrimaryIsPassThrough) {
  std::atomic<bool> slow{false};
  SlowableClassifier primary(&slow);
  serve::HeuristicClassifier fallback(4, 2, [](const float*) { return 0; });
  serve::CircuitBreakerClassifier breaker(primary, fallback, tight_breaker());
  const float f[4] = {0, 0, 0, 0};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(breaker.classify(f), 1);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);
  EXPECT_EQ(breaker.counters().primary_calls, 50u);
  EXPECT_EQ(breaker.counters().fallback_calls, 0u);
  EXPECT_TRUE(breaker.transitions().empty());
}

TEST(Breaker, FullTripCooldownProbeRecoverCycle) {
  std::atomic<bool> slow{true};
  SlowableClassifier primary(&slow);
  serve::HeuristicClassifier fallback(4, 2, [](const float*) { return 0; });
  serve::CircuitBreakerClassifier breaker(primary, fallback, tight_breaker());
  const float f[4] = {0, 0, 0, 0};

  // Two consecutive latency faults trip the breaker. A budget breach still
  // returns the (slow but valid) primary verdict.
  EXPECT_EQ(breaker.classify(f), 1);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);
  EXPECT_EQ(breaker.classify(f), 1);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kOpen);
  EXPECT_EQ(breaker.counters().trips, 1u);
  EXPECT_EQ(breaker.counters().faults_latency, 2u);

  // While open every call is the fallback; the cooldown arms the probe.
  EXPECT_EQ(breaker.classify(f), 0);
  EXPECT_EQ(breaker.classify(f), 0);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.counters().fallback_calls, 2u);

  // Probe while still slow: re-trip.
  EXPECT_EQ(breaker.classify(f), 1);  // probe answered, slowly
  EXPECT_EQ(breaker.state(), serve::BreakerState::kOpen);
  EXPECT_EQ(breaker.counters().probe_failures, 1u);
  EXPECT_EQ(breaker.counters().trips, 2u);

  // Primary recovers: cooldown, then two successful probes close it.
  slow.store(false);
  EXPECT_EQ(breaker.classify(f), 0);
  EXPECT_EQ(breaker.classify(f), 0);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kHalfOpen);
  EXPECT_EQ(breaker.classify(f), 1);
  EXPECT_EQ(breaker.classify(f), 1);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);
  EXPECT_EQ(breaker.counters().recoveries, 1u);

  // The transition log is exactly the legal walk json_check asserts over.
  const auto log = breaker.transitions();
  using S = serve::BreakerState;
  const std::pair<S, S> want[] = {
      {S::kClosed, S::kOpen},    {S::kOpen, S::kHalfOpen},
      {S::kHalfOpen, S::kOpen},  {S::kOpen, S::kHalfOpen},
      {S::kHalfOpen, S::kClosed}};
  ASSERT_EQ(log.size(), std::size(want));
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].from, want[i].first) << "edge " << i;
    EXPECT_EQ(log[i].to, want[i].second) << "edge " << i;
    if (i > 0) {
      EXPECT_LE(log[i - 1].at_call, log[i].at_call);
    }
  }
}

// The transition log holds the first 64 edges of the walk: json_check's
// legal-walk check starts from closed. The counters keep counting past it.
TEST(Breaker, TransitionLogKeepsFirst64WhileCountersCountAll) {
  std::atomic<bool> slow{false};
  SlowableClassifier primary(&slow);
  serve::HeuristicClassifier fallback(4, 2, [](const float*) { return 0; });
  ChaosConfig ccfg;
  ccfg.seed = 64;
  ccfg.with(ChaosSite::kClassifierFault, 0.5);
  serve::BreakerConfig bcfg;
  bcfg.failure_threshold = 1;
  bcfg.open_cooldown_calls = 1;
  bcfg.half_open_successes = 1;
  const float f[4] = {0, 0, 0, 0};

  ChaosInjector chaos(ccfg);
  serve::CircuitBreakerClassifier breaker(primary, fallback, bcfg, &chaos);
  for (int i = 0; i < 2000; ++i) (void)breaker.classify(f);
  const auto log = breaker.transitions();
  const serve::BreakerCounters c = breaker.counters();
  ASSERT_EQ(log.size(), 64u);
  EXPECT_GT(c.trips + c.recoveries, log.size()) << "the walk outgrew the log";
  EXPECT_EQ(log.front().from, serve::BreakerState::kClosed);
  std::uint64_t logged_trips = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (log[i].to == serve::BreakerState::kOpen) ++logged_trips;
    if (i > 0) {
      EXPECT_EQ(log[i].from, log[i - 1].to) << "edge " << i;
      EXPECT_LT(log[i - 1].at_call, log[i].at_call) << "edge " << i;
    }
  }
  EXPECT_LT(logged_trips, c.trips);

  // The same seeded walk, stopped at the 64th edge's call, logs exactly
  // those 64 edges: the log is the walk's prefix, not its tail.
  ChaosInjector chaos2(ccfg);
  serve::CircuitBreakerClassifier prefix(primary, fallback, bcfg, &chaos2);
  for (std::uint64_t i = 0; i < log.back().at_call; ++i) (void)prefix.classify(f);
  const auto want = prefix.transitions();
  ASSERT_EQ(want.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].from, want[i].from) << "edge " << i;
    EXPECT_EQ(log[i].to, want[i].to) << "edge " << i;
    EXPECT_EQ(log[i].at_call, want[i].at_call) << "edge " << i;
  }
}

TEST(Breaker, InjectedFaultRoutesToFallbackImmediately) {
  std::atomic<bool> slow{false};
  SlowableClassifier primary(&slow);
  serve::HeuristicClassifier fallback(4, 2, [](const float*) { return 0; });
  ChaosConfig cfg;
  cfg.seed = 3;
  cfg.with(ChaosSite::kClassifierFault, 1.0);
  ChaosInjector chaos(cfg);
  serve::BreakerConfig bcfg = tight_breaker();
  bcfg.failure_threshold = 1;
  serve::CircuitBreakerClassifier breaker(primary, fallback, bcfg, &chaos);
  const float f[4] = {0, 0, 0, 0};
  // The injected fault replaces the primary verdict with the fallback's and
  // a single fault trips at threshold 1.
  EXPECT_EQ(breaker.classify(f), 0);
  EXPECT_EQ(breaker.state(), serve::BreakerState::kOpen);
  EXPECT_EQ(breaker.counters().faults_injected, 1u);
  EXPECT_EQ(breaker.counters().primary_calls, 0u);
}

// ---------------------------------------------------------------------------
// Engine-level chaos: allocation faults and the watchdog escalation ladder.

TEST(EngineChaos, AllocFaultsBecomeCountedRejections) {
  const auto stream = sample_stream();
  ChaosConfig ccfg;
  ccfg.seed = 11;
  ccfg.with(ChaosSite::kFlowTableAlloc, 1.0);
  ChaosInjector chaos(ccfg);
  serve::ServeConfig cfg;
  cfg.table.shards = 4;
  cfg.table.max_flows = 256;
  cfg.batch_size = 64;
  cfg.chaos = &chaos;
  serve::ServeEngine engine(cfg, cheap_classifier());
  for (std::size_t i = 0; i < 256 && i < stream.size(); ++i)
    engine.offer(stream[i]);
  engine.drain();
  const serve::ServeStats stats = engine.stats();
  EXPECT_EQ(stats.counters.flows_created, 0u);
  EXPECT_GT(stats.counters.flows_rejected_full, 0u);
  EXPECT_GT(chaos.fired(ChaosSite::kFlowTableAlloc), 0u);
}

TEST(EngineChaos, WatchdogEscalatesAndRecovers) {
  const auto stream = sample_stream();
  std::atomic<bool> stall_armed{true};
  serve::ServeConfig cfg;
  cfg.table.shards = 4;
  cfg.table.max_flows = 256;
  cfg.queue_capacity = 1024;
  cfg.batch_size = 96;
  cfg.record_verdicts = true;
  cfg.watchdog_timeout_s = 0.04;
  cfg.fallback = cheap_classifier();
  // One shard stalls through every escalation level on the first round.
  cfg.shard_hook = [&stall_armed](std::size_t shard) {
    if (shard != 0 || !stall_armed.exchange(false)) return;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
    while (std::chrono::steady_clock::now() < until)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  serve::ServeEngine engine(cfg, cheap_classifier());

  std::size_t pos = 0;
  for (std::size_t round = 0; round < 12 && pos < stream.size(); ++round) {
    for (std::size_t k = 0; k < 96 && pos < stream.size(); ++k, ++pos)
      engine.offer(stream[pos]);
    engine.pump();
  }
  engine.drain();
  engine.flush();

  const serve::ServeStats stats = engine.stats();
  EXPECT_GE(stats.counters.watchdog_stalls, 1u);
  EXPECT_GE(stats.counters.watchdog_quarantines, 1u);
  EXPECT_GE(stats.counters.watchdog_round_aborts, 1u);
  EXPECT_GE(stats.counters.packets_requeued, 1u);
  // Clean rounds after the stall must have lifted every quarantine.
  EXPECT_GE(stats.counters.watchdog_recoveries, 1u);
  for (std::size_t s = 0; s < cfg.table.shards; ++s)
    EXPECT_FALSE(engine.quarantined(s)) << "shard " << s;
  // Requeued packets were re-drained, not lost: the whole stream was
  // accounted as processed exactly once.
  EXPECT_EQ(stats.counters.packets_processed,
            stats.counters.packets_offered - stats.counters.packets_rejected);
}

// ---------------------------------------------------------------------------
// ChaosTsan: every chaos path exercised concurrently. Runs in plain builds
// and as the chaos_tsan_smoke ctest case under -DSUGAR_SANITIZE=thread.

TEST(ChaosTsan, StormSmoke) {
  const auto stream = sample_stream();
  ChaosConfig ccfg;
  ccfg.seed = 31337;
  ccfg.stall_usec = 100;
  ccfg.classifier_delay_usec = 100;
  ccfg.with(ChaosSite::kShardStall, 0.02)
      .with(ChaosSite::kClassifierDelay, 0.05)
      .with(ChaosSite::kClassifierFault, 0.10)
      .with(ChaosSite::kFlowTableAlloc, 0.05)
      .with(ChaosSite::kIoWriteFail, 0.30)
      .with(ChaosSite::kIoShortWrite, 0.30)
      .with(ChaosSite::kIoRenameFail, 0.20);
  ChaosInjector chaos(ccfg);
  ChaosIo chaos_io(chaos);

  serve::FlowFeatureConfig fcfg;
  const std::size_t dim = serve::flow_feature_dim(fcfg);
  auto primary = cheap_classifier();
  auto fallback = std::make_shared<serve::HeuristicClassifier>(
      dim, 4, [](const float*) { return 0; });
  serve::BreakerConfig bcfg;
  bcfg.failure_threshold = 2;
  bcfg.open_cooldown_calls = 4;
  bcfg.half_open_successes = 2;
  auto breaker = std::make_shared<serve::CircuitBreakerClassifier>(
      *primary, *fallback, bcfg, &chaos);

  serve::ServeConfig cfg;
  cfg.table.shards = 4;
  cfg.table.max_flows = 256;
  cfg.queue_capacity = 512;
  cfg.batch_size = 64;
  cfg.record_verdicts = true;
  cfg.chaos = &chaos;
  cfg.fallback = fallback;
  serve::ServeEngine engine(cfg, breaker);

  // Rounds run on this thread; a background evictor classifies through the
  // same breaker and injection sites at the same time.
  std::atomic<bool> storm_done{false};
  std::thread evictor([&] {
    while (!storm_done.load(std::memory_order_acquire)) {
      engine.evict_idle_now(engine.stats().gauges.virtual_now_usec + 1'000'000);
      std::this_thread::yield();
    }
  });
  const std::string path = ::testing::TempDir() + "/chaos_tsan.snap";
  std::size_t pos = 0;
  for (std::size_t round = 0; pos < stream.size() && round < 64; ++round) {
    for (std::size_t k = 0; k < 96 && pos < stream.size(); ++k, ++pos)
      engine.offer(stream[pos]);
    engine.pump();
    if (round % 8 == 7) engine.save_snapshot(path, &chaos_io);  // may fail: counted
  }
  storm_done.store(true, std::memory_order_release);
  evictor.join();
  engine.drain();
  engine.flush();

  // The storm must leave a coherent engine: a clean save to the real
  // filesystem restores into a fresh instance.
  ASSERT_TRUE(engine.save_snapshot(path).ok());
  serve::ServeEngine fresh(cfg, breaker);
  EXPECT_TRUE(fresh.restore_snapshot(path).ok());
  const auto a = engine.stats().counters.to_values();
  const auto b = fresh.stats().counters.to_values();
  EXPECT_EQ(a, b);
  core::real_io().remove_file(path);
}

}  // namespace
}  // namespace sugar
