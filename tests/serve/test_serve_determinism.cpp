// Determinism contract of the online engine: the same packet stream under
// the same offer()/pump() schedule must yield identical per-flow verdict
// sequences and identical eviction/shed counters at SUGAR_THREADS = 1, 2
// and 7 (an odd width catches remainder-partition bugs). Shard assignment
// is a pure function of the flow key and eviction runs on stream virtual
// time, so only the latency histogram may vary across widths — checked
// both in a calm regime and under overload with the shed ladder engaged.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "core/chaos.h"
#include "core/threadpool.h"
#include "net/fault.h"
#include "serve/breaker.h"
#include "serve/engine.h"
#include "trafficgen/datasets.h"

namespace sugar::serve {
namespace {

/// Rebuilds the global pool at a given width for the test body, then
/// restores the env-derived width so later tests see the default substrate.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { core::set_global_threads(n); }
  ~ScopedThreads() { core::set_global_threads(0); }
};

const std::size_t kWidths[] = {1, 2, 7};

std::vector<net::Packet> sample_stream(double spurious) {
  trafficgen::GenOptions opts;
  opts.seed = 2026;
  opts.flows_per_class = 3;
  opts.spurious_fraction = spurious;
  return trafficgen::generate_iscx_vpn(opts).packets;
}

std::shared_ptr<const FlowClassifier> parity_classifier() {
  FlowFeatureConfig fcfg;
  const std::size_t dim = flow_feature_dim(fcfg);
  // Label depends on the feature vector so a single out-of-order or
  // misattributed packet flips the verdict.
  return std::make_shared<HeuristicClassifier>(dim, 4, [dim](const float* f) {
    float acc = 0.0f;
    for (std::size_t d = 0; d < dim; ++d) acc += f[d];
    return static_cast<int>(static_cast<std::uint64_t>(acc) % 4);
  });
}

std::string describe(const Verdict& v) {
  std::ostringstream os;
  os << std::string(reinterpret_cast<const char*>(&v.key), sizeof v.key)
     << '|' << v.label << '|' << v.packets << '|' << v.feature_packets << '|'
     << to_string(v.reason) << '|' << v.first_ts_usec << '|' << v.last_ts_usec;
  return os.str();
}

struct RunResult {
  std::vector<std::string> verdicts;
  ServeCounters counters;
  std::uint64_t current_flows = 0;
  std::uint64_t peak_flows = 0;
  std::uint64_t peak_queue_depth = 0;
};

bool counters_equal(const ServeCounters& a, const ServeCounters& b) {
  return a.monotone_le(b) && b.monotone_le(a);
}

/// Offers packets per round from the deterministic `per_round(round)`
/// schedule, then pumps once, until the stream is consumed; offer()
/// rejections are part of the deterministic record (queue depth is itself
/// a pure function of the schedule).
using Schedule = std::function<std::size_t(std::size_t round)>;

RunResult run_stream(const std::vector<net::Packet>& stream,
                     const ServeConfig& cfg, const Schedule& per_round,
                     std::size_t width,
                     std::shared_ptr<const FlowClassifier> classifier =
                         parity_classifier()) {
  ScopedThreads threads(width);
  ServeEngine engine(cfg, std::move(classifier));
  std::size_t i = 0;
  for (std::size_t round = 0; i < stream.size(); ++round) {
    const std::size_t n = per_round(round);
    for (std::size_t k = 0; k < n && i < stream.size(); ++k, ++i)
      engine.offer(stream[i]);  // full queue => counted rejection, move on
    engine.pump();
  }
  engine.drain();
  engine.flush();

  RunResult out;
  for (const auto& v : engine.take_verdicts()) out.verdicts.push_back(describe(v));
  const ServeStats stats = engine.stats();
  out.counters = stats.counters;
  out.current_flows = stats.gauges.current_flows;
  out.peak_flows = stats.gauges.peak_flows;
  out.peak_queue_depth = stats.gauges.peak_queue_depth;
  return out;
}

void expect_same(const RunResult& ref, const RunResult& got, std::size_t width) {
  EXPECT_TRUE(counters_equal(ref.counters, got.counters))
      << "counters differ at width " << width;
  EXPECT_EQ(ref.current_flows, got.current_flows) << "width " << width;
  EXPECT_EQ(ref.peak_flows, got.peak_flows) << "width " << width;
  EXPECT_EQ(ref.peak_queue_depth, got.peak_queue_depth) << "width " << width;
  ASSERT_EQ(ref.verdicts.size(), got.verdicts.size()) << "width " << width;
  for (std::size_t i = 0; i < ref.verdicts.size(); ++i)
    ASSERT_EQ(ref.verdicts[i], got.verdicts[i])
        << "verdict " << i << " differs at width " << width;
}

ServeConfig calm_config() {
  ServeConfig cfg;
  cfg.table.shards = 4;
  cfg.table.max_flows = 512;
  cfg.queue_capacity = 1024;
  cfg.batch_size = 64;
  cfg.record_verdicts = true;
  return cfg;
}

const Schedule kSteady64 = [](std::size_t) { return std::size_t{64}; };
const Schedule kSteady48 = [](std::size_t) { return std::size_t{48}; };

TEST(ServeDeterminism, CalmStreamSameVerdictsAtAllWidths) {
  const auto stream = sample_stream(/*spurious=*/0.05);
  const auto ref = run_stream(stream, calm_config(), kSteady64, 1);
  ASSERT_FALSE(ref.verdicts.empty());
  EXPECT_GT(ref.counters.classified_at_n, 0u);
  for (const std::size_t width : kWidths)
    expect_same(ref, run_stream(stream, calm_config(), kSteady64, width), width);
}

ServeConfig overload_config() {
  ServeConfig cfg = calm_config();
  cfg.table.shards = 2;
  cfg.table.max_flows = 16;     // tiny table: ladder stages 2/3 engage
  cfg.queue_capacity = 96;      // small queue: offer() rejections too
  cfg.batch_size = 32;
  cfg.idle_timeout_usec = 3'600'000'000ull;  // keep the table full
  cfg.table_hi = 0.5;  // the tiny stream only carries ~20 distinct flows;
  cfg.table_lo = 0.25; // low watermarks make stages 2/3 reachable
  return cfg;
}

// Warm-up rounds below the queue watermark fill the tiny table (stage 2
// early-classify engages on occupancy); then a sustained 5x burst
// overflows the queue (offer() rejections, stage 1, and stage 3 while the
// table is still above its high watermark: with 5% spurious packets the
// stage-2 sweep drains it first, with 30% it cannot).
const Schedule kWarmThenBurst = [](std::size_t round) {
  return std::size_t{round < 8 ? 24u : 160u};
};

TEST(ServeDeterminism, OverloadShedLadderSameCountsAtAllWidths) {
  const auto stream = sample_stream(/*spurious=*/0.05);
  const ServeConfig cfg = overload_config();
  const auto ref = run_stream(stream, cfg, kWarmThenBurst, 1);
  EXPECT_GT(ref.counters.shed_stage_enters, 0u);
  EXPECT_GT(ref.counters.packets_rejected, 0u);
  EXPECT_GT(ref.counters.evicted_early + ref.counters.evicted_sampled, 0u);
  for (const std::size_t width : kWidths)
    expect_same(ref, run_stream(stream, cfg, kWarmThenBurst, width), width);
}

// The overload run's verdict digest and every ServeCounters value. Its
// ladder reaches stage 2 (early-classify sweeps) and stage 3 (sample-evict
// replacements), and short flows evicted there go unclassified.
TEST(ServeDeterminism, ShedLadderVerdictsAndCountersPinned) {
  // Spurious single-packet flows fill the table with flows stage 2 cannot
  // classify, so stage 3 has to evict them.
  const auto stream = sample_stream(/*spurious=*/0.3);
  for (const std::size_t width : kWidths) {
    const auto run = run_stream(stream, overload_config(), kWarmThenBurst, width);
    EXPECT_GT(run.counters.evicted_early, 0u) << "width " << width;
    EXPECT_GT(run.counters.evicted_sampled, 0u) << "width " << width;
    EXPECT_GT(run.counters.evicted_unclassified, 0u) << "width " << width;
    std::string all;
    for (const auto& v : run.verdicts) all += v + '\n';
    EXPECT_EQ(core::fnv1a64(all), 0xcef345ce6a0aa6dbull) << "width " << width;
    EXPECT_EQ(run.counters.to_values(),
              (std::vector<std::uint64_t>{4994, 3776, 1218, 0, 66, 1061, 23, 2, 0,
                                          3, 6, 14, 2, 1, 20, 0, 3, 1, 41, 0,
                                          0, 0, 0, 0, 0}))
        << "width " << width;
  }
}

TEST(ServeDeterminism, FaultedStreamsStayDeterministic) {
  const auto base = sample_stream(/*spurious=*/0.05);
  for (auto fault : {net::SequenceFault::ReorderWindow,
                     net::SequenceFault::DuplicateDelivery,
                     net::SequenceFault::TruncateMidFlow}) {
    net::FaultInjector inj(31);
    const auto stream = inj.mutate_sequence(base, fault);
    const auto ref = run_stream(stream, calm_config(), kSteady48, 1);
    for (const std::size_t width : kWidths)
      expect_same(ref, run_stream(stream, calm_config(), kSteady48, width), width);
  }
}

TEST(ServeDeterminism, ChaosRunsReplayAtAllWidths) {
  // Rounds run on the pump thread, so every injection site draws in stream
  // order: a seeded chaos run replays exactly, at any pool width. No
  // latency budget and no watchdog, so no fault depends on the clock.
  const auto stream = sample_stream(/*spurious=*/0.05);
  core::ChaosConfig ccfg;
  ccfg.seed = 606;
  ccfg.with(core::ChaosSite::kClassifierFault, 0.4)
      .with(core::ChaosSite::kFlowTableAlloc, 0.05);
  const auto primary = parity_classifier();
  const HeuristicClassifier fallback(primary->feature_dim(), 4,
                                     [](const float*) { return 0; });
  BreakerConfig bcfg;
  bcfg.failure_threshold = 2;
  bcfg.open_cooldown_calls = 4;
  bcfg.half_open_successes = 2;

  struct ChaosRun {
    RunResult serve;
    BreakerCounters breaker;
    std::vector<std::string> transitions;
    std::vector<std::uint64_t> site_draws;  // draws then fires, per site
  };
  auto run = [&](std::size_t width) {
    core::ChaosInjector chaos(ccfg);
    auto breaker =
        std::make_shared<CircuitBreakerClassifier>(*primary, fallback, bcfg, &chaos);
    ServeConfig cfg = calm_config();
    cfg.chaos = &chaos;
    ChaosRun out;
    out.serve = run_stream(stream, cfg, kSteady64, width, breaker);
    out.breaker = breaker->counters();
    for (const BreakerTransition& t : breaker->transitions())
      out.transitions.push_back(std::string(to_string(t.from)) + ">" +
                                to_string(t.to) + "@" + std::to_string(t.at_call));
    for (std::size_t s = 0; s < core::kChaosSiteCount; ++s) {
      const auto site = static_cast<core::ChaosSite>(s);
      out.site_draws.push_back(chaos.draws(site));
      out.site_draws.push_back(chaos.fired(site));
    }
    return out;
  };
  auto breaker_values = [](const BreakerCounters& c) {
    return std::vector<std::uint64_t>{c.primary_calls, c.fallback_calls,
                                      c.faults_latency, c.faults_injected,
                                      c.trips,         c.probes,
                                      c.probe_failures, c.recoveries};
  };

  const ChaosRun ref = run(1);
  ASSERT_FALSE(ref.serve.verdicts.empty());
  EXPECT_GT(ref.breaker.faults_injected, 0u);
  EXPECT_GT(ref.breaker.recoveries, 0u);
  EXPECT_GT(ref.serve.counters.flows_rejected_full, 0u);
  for (const std::size_t width : kWidths) {
    for (int pass = 0; pass < 2; ++pass) {
      const ChaosRun got = run(width);
      expect_same(ref.serve, got.serve, width);
      EXPECT_EQ(breaker_values(ref.breaker), breaker_values(got.breaker))
          << "width " << width;
      EXPECT_EQ(ref.transitions, got.transitions) << "width " << width;
      EXPECT_EQ(ref.site_draws, got.site_draws) << "width " << width;
    }
  }
}

}  // namespace
}  // namespace sugar::serve
