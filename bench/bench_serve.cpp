// bench_serve: robustness benchmark for the online serving engine. A
// trafficgen trace is replayed through serve::ServeEngine as an arrival
// stream; cells probe the engine's steady-state capacity, then push offered
// load at 0.5x / 1x / 2x of it and finally replay fault-injected sequences
// (reorder / duplicate / mid-flow truncation) under both calm and overload
// pressure. The engine must survive every cell with bounded memory, and the
// artifact records the evidence: latency percentiles, flows/sec, shed and
// eviction counters, plus a snapshot timeline whose counters json_check
// verifies are monotone. Two more cell families cover crash tolerance:
// crash-recovery cells kill the engine at a deterministic tick, restore from
// a checkpointed snapshot and assert bit-identical verdicts and counters
// against an uninterrupted run, and a chaos matrix injects classifier,
// flow-table-allocation and disk faults, recording circuit-breaker
// transitions and recovery accounting for json_check to validate.
//
// Offered load is modelled in deterministic ticks, not wall time: one
// pump() per tick processes at most batch_size packets, so offering
// ratio x batch_size packets per tick is an offered:capacity ratio of
// `ratio` by construction. At 2x the queue saturates and the shed ladder
// must engage — observably, without crashing and within the table's
// bytes_cap().
//
// Extra flags on top of the common bench CLI:
//   --offered-load <pps>   rewrite replay timestamps to this packets/sec
//   --duration-s <n>       stream-seconds of traffic per load cell
//   --max-flows <n>        flow-table hard bound
//   --shards <n>           flow-table shard count
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "core/artifact.h"
#include "core/chaos.h"
#include "core/envparse.h"
#include "core/io.h"
#include "ml/metrics.h"
#include "net/fault.h"
#include "net/replay.h"
#include "serve/breaker.h"
#include "serve/classifier.h"
#include "serve/engine.h"
#include "serve/flow_features.h"
#include "serve/snapshot.h"
#include "trafficgen/datasets.h"

using namespace sugar;

namespace {

struct ServeCliOptions {
  double offered_pps = 0;     // 0: keep captured timestamps
  double duration_s = 4.0;    // stream-seconds per load cell
  std::size_t max_flows = 0;  // 0: derived from the trace
  std::size_t shards = 8;
  std::size_t queue_capacity = 2048;
  std::size_t batch_size = 256;
};

bool parse_serve_flags(const std::vector<std::string>& args, ServeCliOptions& out,
                       std::string& error) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    // Counts parse straight into their integer type, so "2.5", "1e30" and
    // "inf" are malformed rather than cast.
    auto value = [&](auto& dst) {
      if (i + 1 >= args.size()) {
        error = "missing value for " + arg;
        return false;
      }
      if (!core::parse_number(args[++i], dst)) {
        error = "malformed value for " + arg + " '" + args[i] + "'";
        return false;
      }
      return true;
    };
    auto range = [&](bool ok) {
      if (!ok && error.empty())
        error = "out-of-range value for " + arg + " '" + args[i] + "'";
      return ok;
    };
    if (arg == "--offered-load") {
      if (!value(out.offered_pps) || !range(out.offered_pps >= 0)) return false;
    } else if (arg == "--duration-s") {
      if (!value(out.duration_s) || !range(out.duration_s > 0)) return false;
    } else if (arg == "--max-flows") {
      if (!value(out.max_flows) || !range(out.max_flows >= 1)) return false;
    } else if (arg == "--shards") {
      if (!value(out.shards) || !range(out.shards >= 1)) return false;
    } else if (arg == "--queue-capacity") {
      if (!value(out.queue_capacity) || !range(out.queue_capacity >= 1)) return false;
    } else if (arg == "--batch-size") {
      if (!value(out.batch_size) || !range(out.batch_size >= 1)) return false;
    } else {
      error = "unknown flag '" + arg + "'";
      return false;
    }
  }
  return true;
}

struct GroundTruth {
  std::unordered_map<net::FlowKey, int, net::FlowKeyHash> label_of;
};

/// One simulated run: offers `ratio x batch_size` packets per tick from a
/// looping replay source, pumps once per tick, snapshots counters on a
/// fixed cadence, then drains and flushes. Returns the summary the cell
/// reports.
core::CellSummary run_stream_cell(const std::vector<net::Packet>& stream,
                                  const ServeCliOptions& cli, double ratio,
                                  std::size_t total_packets,
                                  std::shared_ptr<const serve::FlowClassifier> clf,
                                  const GroundTruth& truth) {
  serve::ServeConfig cfg;
  cfg.table.shards = cli.shards;
  cfg.table.max_flows = cli.max_flows;
  cfg.queue_capacity = cli.queue_capacity;
  cfg.batch_size = cli.batch_size;
  cfg.record_verdicts = true;
  const int num_classes = clf->num_classes();
  serve::ServeEngine engine(cfg, std::move(clf));

  net::ReplayOptions ropts;
  ropts.loops = 0;  // loop forever; total_packets bounds the run
  ropts.offered_pps = cli.offered_pps;
  net::ReplaySource source(stream, ropts);

  const auto per_tick = static_cast<std::size_t>(
      std::max(1.0, ratio * static_cast<double>(cli.batch_size)));
  const std::size_t snapshot_every =
      std::max<std::size_t>(1, total_packets / per_tick / 16);

  std::vector<serve::ServeCounters> snapshots;
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t offered = 0, tick = 0;
  net::Packet pkt;
  while (offered < total_packets) {
    for (std::size_t i = 0; i < per_tick && offered < total_packets; ++i) {
      if (!source.next(pkt)) break;
      engine.offer(pkt);  // a false return is the backpressure drop — counted
      ++offered;
    }
    engine.pump();
    if (++tick % snapshot_every == 0)
      snapshots.push_back(engine.stats().counters);
  }
  engine.drain();
  engine.flush();
  snapshots.push_back(engine.stats().counters);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  // Score the verdicts against generator truth (flows whose key has no
  // labelled ground truth — spurious traffic — are excluded).
  const auto verdicts = engine.take_verdicts();
  std::vector<int> y_true, y_pred;
  for (const auto& v : verdicts) {
    auto it = truth.label_of.find(v.key);
    if (it == truth.label_of.end() || it->second < 0) continue;
    y_true.push_back(it->second);
    y_pred.push_back(v.label);
  }

  const serve::ServeStats stats = engine.stats();
  core::CellSummary s = core::summarize(ml::evaluate(y_true, y_pred, num_classes));
  s.n_test = y_true.size();
  s.test_seconds = wall;

  core::Json serve_json = stats.to_json();
  serve_json.set("offered_ratio", core::Json(ratio));
  serve_json.set("verdicts", core::Json(verdicts.size()));
  serve_json.set(
      "packets_per_s",
      core::Json(wall > 0 ? static_cast<double>(
                                stats.counters.packets_processed) / wall
                          : 0.0));
  serve_json.set(
      "flows_per_s",
      core::Json(wall > 0
                     ? static_cast<double>(stats.counters.flows_created) / wall
                     : 0.0));
  core::Json snaps = core::Json::array();
  for (const auto& c : snapshots) snaps.push(c.to_json());
  serve_json.set("snapshots", snaps);
  s.extra.set("serve", serve_json);
  return s;
}

/// Deterministic, resumable replay cursor: packet `pos` is the stream
/// repeated with its whole time span added per loop, so timestamps advance
/// monotonically and any absolute position can be regenerated after a
/// restore — no iterator state to lose in a crash.
struct LoopedStream {
  const std::vector<net::Packet>* pkts = nullptr;
  std::uint64_t span_usec = 0;

  explicit LoopedStream(const std::vector<net::Packet>& stream) : pkts(&stream) {
    for (const net::Packet& p : stream)
      span_usec = std::max(span_usec, p.ts_usec);
    span_usec += 1'000;  // inter-loop gap
  }

  [[nodiscard]] net::Packet at(std::size_t pos) const {
    net::Packet p = (*pkts)[pos % pkts->size()];
    p.ts_usec += (pos / pkts->size()) * span_usec;
    return p;
  }
};

serve::ServeConfig make_engine_cfg(const ServeCliOptions& cli) {
  serve::ServeConfig cfg;
  cfg.table.shards = cli.shards;
  cfg.table.max_flows = cli.max_flows;
  cfg.queue_capacity = cli.queue_capacity;
  cfg.batch_size = cli.batch_size;
  cfg.record_verdicts = true;
  return cfg;
}

/// Offers per_tick packets per tick (engine.stream_pos() is the cursor) and
/// pumps once per tick, for `ticks` ticks or until the stream is exhausted.
/// Returns ticks actually run.
std::size_t drive_ticks(serve::ServeEngine& engine, const LoopedStream& ls,
                        std::size_t per_tick, std::size_t total_packets,
                        std::size_t ticks) {
  std::size_t ran = 0;
  while (ran < ticks && engine.stream_pos() < total_packets) {
    std::size_t pos = engine.stream_pos();
    for (std::size_t i = 0; i < per_tick && pos < total_packets; ++i) {
      engine.offer(ls.at(pos));
      ++pos;
    }
    engine.set_stream_pos(pos);
    engine.pump();
    ++ran;
  }
  return ran;
}

bool verdicts_equal(const std::vector<serve::Verdict>& a,
                    const std::vector<serve::Verdict>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].label != b[i].label ||
        a[i].packets != b[i].packets ||
        a[i].feature_packets != b[i].feature_packets ||
        a[i].reason != b[i].reason ||
        a[i].first_ts_usec != b[i].first_ts_usec ||
        a[i].last_ts_usec != b[i].last_ts_usec)
      return false;
  }
  return true;
}

std::string snapshot_dir() {
  const char* dir = std::getenv("SUGAR_SNAPSHOT_DIR");
  return dir && *dir ? std::string(dir) : std::string(".");
}

/// Crash-recovery cell: run the stream uninterrupted, then re-run it with a
/// kill at tick `kill_tick` — snapshot, destroy the engine, restore into a
/// fresh one and continue from the recorded stream position. The two runs
/// must agree bit-for-bit on every verdict and every counter; `identical`
/// in the artifact is that assertion, and the counter pair at the crash
/// boundary lets json_check verify restore monotonicity mechanically.
core::CellSummary run_crash_cell(const std::vector<net::Packet>& stream,
                                 const ServeCliOptions& cli,
                                 std::shared_ptr<const serve::FlowClassifier> clf,
                                 std::size_t kill_tick,
                                 std::size_t total_packets) {
  const LoopedStream ls(stream);
  const std::size_t per_tick = cli.batch_size;
  const auto t0 = std::chrono::steady_clock::now();

  // Baseline: never interrupted.
  std::vector<serve::Verdict> base_verdicts;
  serve::ServeCounters base_counters;
  {
    serve::ServeEngine engine(make_engine_cfg(cli), clf);
    drive_ticks(engine, ls, per_tick, total_packets, ~std::size_t{0});
    engine.drain();
    engine.flush();
    base_verdicts = engine.take_verdicts();
    base_counters = engine.stats().counters;
  }

  // Crashed run: kill at tick k, snapshot, restore, replay the rest.
  const std::string path =
      snapshot_dir() + "/bench_serve_crash_" + std::to_string(kill_tick) + ".snap";
  serve::ServeCounters kill_counters;
  serve::SnapshotOutcome saved, restored;
  std::vector<serve::Verdict> crash_verdicts;
  serve::ServeCounters crash_counters;
  serve::RecoveryStats recovery;
  {
    serve::ServeEngine engine(make_engine_cfg(cli), clf);
    drive_ticks(engine, ls, per_tick, total_packets, kill_tick);
    saved = engine.save_snapshot(path);
    kill_counters = engine.stats().counters;
    // Engine destroyed here — the simulated crash.
  }
  {
    serve::ServeEngine engine(make_engine_cfg(cli), clf);
    restored = engine.restore_snapshot(path);
    if (restored.ok()) {
      drive_ticks(engine, ls, per_tick, total_packets, ~std::size_t{0});
      engine.drain();
      engine.flush();
    }
    crash_verdicts = engine.take_verdicts();
    crash_counters = engine.stats().counters;
    recovery = engine.recovery();
  }
  core::real_io().remove_file(path);

  const bool counters_ok =
      base_counters.to_values() == crash_counters.to_values();
  const bool identical = saved.ok() && restored.ok() && counters_ok &&
                         verdicts_equal(base_verdicts, crash_verdicts);

  core::CellSummary s;
  s.accuracy = identical ? 1.0 : 0.0;
  s.macro_f1 = s.accuracy;
  s.n_test = crash_verdicts.size();
  s.test_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  core::Json j = core::Json::object();
  j.set("kill_tick", core::Json(kill_tick));
  j.set("save_ok", core::Json(saved.ok()));
  j.set("restore_ok", core::Json(restored.ok()));
  j.set("counters_identical", core::Json(counters_ok));
  j.set("verdicts_identical",
        core::Json(verdicts_equal(base_verdicts, crash_verdicts)));
  j.set("identical", core::Json(identical));
  j.set("verdicts", core::Json(crash_verdicts.size()));
  j.set("recovery", recovery.to_json());
  // Counter timeline across the crash boundary: at-kill must be <= final
  // field-for-field (json_check enforces).
  core::Json snaps = core::Json::array();
  snaps.push(kill_counters.to_json());
  snaps.push(crash_counters.to_json());
  j.set("snapshots", std::move(snaps));
  s.extra.set("crash_recovery", std::move(j));
  if (!identical) {
    std::fprintf(stderr,
                 "bench_serve: crash cell kill_tick=%zu NOT identical "
                 "(save=%s restore=%s counters=%d verdicts %zu vs %zu)\n",
                 kill_tick, to_string(saved.error), to_string(restored.error),
                 counters_ok ? 1 : 0, base_verdicts.size(),
                 crash_verdicts.size());
  }
  return s;
}

enum class ChaosMode { kBreaker, kAlloc, kIo };

/// Chaos-matrix cell: one deterministic chaos configuration per mode.
///   breaker  classifier faults + latency spikes; the circuit breaker must
///            trip to the heuristic fallback and recover via half-open
///            probes (its transitions land in the artifact for json_check)
///   alloc    flow-table allocation failures surface as flows_rejected_full
///   io       snapshot writes run through ChaosIo (disk-full, short write,
///            rename failure); a final clean save must still restore
core::CellSummary run_chaos_cell(const std::vector<net::Packet>& stream,
                                 const ServeCliOptions& cli,
                                 std::shared_ptr<const serve::FlowClassifier> clf,
                                 std::shared_ptr<const serve::FlowClassifier> fallback,
                                 std::uint64_t seed, ChaosMode mode,
                                 std::size_t total_packets) {
  core::ChaosConfig ccfg;
  ccfg.seed = seed;
  ccfg.stall_usec = 200;
  ccfg.classifier_delay_usec = 200;
  switch (mode) {
    case ChaosMode::kBreaker:
      ccfg.with(core::ChaosSite::kClassifierFault, 0.5)
          .with(core::ChaosSite::kClassifierDelay, 0.05);
      break;
    case ChaosMode::kAlloc:
      ccfg.with(core::ChaosSite::kFlowTableAlloc, 0.25);
      break;
    case ChaosMode::kIo:
      ccfg.with(core::ChaosSite::kIoWriteFail, 0.30)
          .with(core::ChaosSite::kIoShortWrite, 0.30)
          .with(core::ChaosSite::kIoRenameFail, 0.20);
      break;
  }
  core::ChaosInjector chaos(ccfg);
  core::ChaosIo chaos_io(chaos);

  serve::BreakerConfig bcfg;
  bcfg.failure_threshold = 2;
  bcfg.open_cooldown_calls = 8;
  bcfg.half_open_successes = 2;
  bcfg = serve::BreakerConfig::from_env(bcfg);
  auto breaker = std::make_shared<serve::CircuitBreakerClassifier>(
      *clf, *fallback, bcfg, mode == ChaosMode::kBreaker ? &chaos : nullptr);

  serve::ServeConfig cfg = make_engine_cfg(cli);
  cfg.chaos = &chaos;
  cfg.fallback = fallback;
  serve::ServeEngine engine(
      cfg, mode == ChaosMode::kBreaker
               ? std::static_pointer_cast<const serve::FlowClassifier>(breaker)
               : clf);

  const LoopedStream ls(stream);
  const std::string path = snapshot_dir() + "/bench_serve_chaos.snap";
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t tick = 0;
  while (engine.stream_pos() < total_packets) {
    drive_ticks(engine, ls, cli.batch_size, total_packets, 1);
    // The io cell checkpoints on a cadence through the fault-injecting Io;
    // failed saves are counted, never fatal.
    if (mode == ChaosMode::kIo && ++tick % 4 == 0)
      engine.save_snapshot(path, &chaos_io);
  }
  engine.drain();
  engine.flush();

  bool final_restore_ok = true;
  if (mode == ChaosMode::kIo) {
    // After the storm: one clean save must restore into a fresh engine.
    final_restore_ok = false;
    if (engine.save_snapshot(path).ok()) {
      serve::ServeEngine fresh(make_engine_cfg(cli), clf);
      final_restore_ok = fresh.restore_snapshot(path).ok();
    }
  }
  core::real_io().remove_file(path);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const auto verdicts = engine.take_verdicts();
  const serve::ServeStats stats = engine.stats();
  const auto bc = breaker->counters();

  core::CellSummary s;
  s.accuracy = mode == ChaosMode::kBreaker && bc.trips > 0 && bc.recoveries > 0
                   ? 1.0
                   : (mode == ChaosMode::kBreaker ? 0.0 : 1.0);
  s.macro_f1 = s.accuracy;
  s.n_test = verdicts.size();
  s.test_seconds = wall;

  core::Json j = core::Json::object();
  j.set("mode", core::Json(mode == ChaosMode::kBreaker
                               ? "breaker"
                               : (mode == ChaosMode::kAlloc ? "alloc" : "io")));
  j.set("chaos", chaos.to_json());
  j.set("stats", stats.to_json());
  j.set("verdicts", core::Json(verdicts.size()));
  if (mode == ChaosMode::kBreaker) j.set("breaker", breaker->to_json());
  if (mode == ChaosMode::kIo) {
    j.set("recovery", engine.recovery().to_json());
    j.set("final_restore_ok", core::Json(final_restore_ok));
  }
  s.extra.set("chaos_cell", std::move(j));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  std::vector<std::string> extra;
  auto sup_cfg = core::parse_bench_cli("serve", argc, argv, error, &extra);
  ServeCliOptions cli;
  if (sup_cfg && !parse_serve_flags(extra, cli, error)) sup_cfg.reset();
  if (!sup_cfg) {
    std::fprintf(stderr, "bench_serve: %s\n%s", error.c_str(),
                 core::bench_usage("serve").c_str());
    std::fprintf(stderr,
                 "  --offered-load <pps>     replay at this packets/sec (0: captured)\n"
                 "  --duration-s <n>         stream-seconds per load cell\n"
                 "  --max-flows <n>          flow-table hard bound\n"
                 "  --shards <n>             flow-table shard count\n"
                 "  --queue-capacity <n>     bounded ingest queue size\n"
                 "  --batch-size <n>         packets per pump round\n");
    return 2;
  }
  core::RunSupervisor sup(std::move(*sup_cfg));

  // Trace + classifier setup (outside the cells: shared fixture).
  const core::EnvConfig env_cfg = core::EnvConfig::from_env();
  trafficgen::GenOptions gen;
  gen.seed = env_cfg.seed;
  gen.flows_per_class = env_cfg.flows_per_class_iscx;
  gen.spurious_fraction = env_cfg.iscx_spurious;
  const auto trace = trafficgen::generate_iscx_vpn(gen);
  std::printf("bench_serve: trace %zu packets, %zu flows\n", trace.size(),
              trace.num_flows());

  std::vector<int> packet_labels(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i)
    packet_labels[i] = trace.labels[i].cls;
  serve::FlowFeatureConfig fcfg;
  const auto flows = serve::batch_flow_features(trace.packets, &packet_labels, fcfg);
  GroundTruth truth;
  for (std::size_t i = 0; i < flows.keys.size(); ++i)
    truth.label_of.emplace(flows.keys[i], flows.labels[i]);

  // Spurious-only flows carry label -1; the forest trains on labelled
  // traffic only (scoring skips unlabelled flows as well).
  std::vector<std::size_t> labelled;
  int num_classes = 0;
  for (std::size_t i = 0; i < flows.labels.size(); ++i) {
    if (flows.labels[i] < 0) continue;
    labelled.push_back(i);
    num_classes = std::max(num_classes, flows.labels[i] + 1);
  }
  if (labelled.empty() || num_classes < 2) {
    std::fprintf(stderr, "bench_serve: trace produced no labelled flows\n");
    return 1;
  }
  ml::Matrix train_x(labelled.size(), flows.x.cols());
  std::vector<int> train_y(labelled.size());
  for (std::size_t r = 0; r < labelled.size(); ++r) {
    std::copy_n(flows.x.row(labelled[r]), flows.x.cols(), train_x.row(r));
    train_y[r] = flows.labels[labelled[r]];
  }

  ml::ForestConfig forest_cfg;
  forest_cfg.num_trees = 24;
  std::shared_ptr<const serve::FlowClassifier> clf =
      serve::fit_forest_classifier(train_x, train_y, num_classes, forest_cfg);
  std::printf("bench_serve: classifier %zu labelled flows, %d classes\n",
              labelled.size(), num_classes);

  if (cli.max_flows == 0)
    cli.max_flows = std::max<std::size_t>(64, trace.num_flows() / 2);

  // The stream length of every cell, in packets: enough ticks at 1x to
  // exercise the ladder, scaled by --duration-s.
  const auto total_packets = static_cast<std::size_t>(
      std::max(1.0, cli.duration_s * 16.0) * static_cast<double>(cli.batch_size));

  // Every cell runs as it is reached; its spec is kept for the table below.
  std::vector<core::CellSpec> specs;
  std::vector<core::CellOutcome> outcomes;
  auto run_serve_cell = [&](core::CellSpec spec,
                            const core::RunSupervisor::CellFn& fn) {
    outcomes.push_back(sup.run_cell(spec, fn));
    specs.push_back(std::move(spec));
  };
  auto run_stream = [&](std::string row, std::string col,
                        const std::vector<net::Packet>& stream, double ratio) {
    run_serve_cell({"serve", row, col, core::generic_cell_key({"serve", row, col})},
                   [&](core::CellContext&) {
                     return run_stream_cell(stream, cli, ratio, total_packets,
                                            clf, truth);
                   });
  };

  // Load ladder: offered:capacity at 0.5x (calm), 1.0x (saturation
  // boundary) and 2.0x (sustained overload — the shed ladder must engage).
  for (double ratio : {0.5, 1.0, 2.0}) {
    char col[16];
    std::snprintf(col, sizeof col, "%.1fx", ratio);
    run_stream("load", col, trace.packets, ratio);
  }

  // Fault matrix: every delivery fault under calm and overload pressure.
  const net::SequenceFault kFaults[] = {net::SequenceFault::ReorderWindow,
                                        net::SequenceFault::DuplicateDelivery,
                                        net::SequenceFault::TruncateMidFlow};
  for (auto fault : kFaults) {
    net::FaultInjector injector(env_cfg.seed * 1000003 +
                                static_cast<std::uint64_t>(fault));
    auto mutated = injector.mutate_sequence(trace.packets, fault);
    for (double ratio : {0.5, 2.0}) {
      char col[16];
      std::snprintf(col, sizeof col, "%.1fx", ratio);
      run_stream("fault " + net::to_string(fault), col, mutated, ratio);
    }
  }

  // Crash-recovery cells: kill at a deterministic tick, snapshot, restore
  // into a fresh engine and replay — the run must be bit-identical to an
  // uninterrupted one (verdicts and every ServeCounter).
  for (std::size_t kill_tick : {std::size_t{3}, std::size_t{11}}) {
    core::CellSpec spec{
        "serve", "crash", "k=" + std::to_string(kill_tick),
        core::generic_cell_key(
            {"serve", "crash", "k" + std::to_string(kill_tick)})};
    run_serve_cell(std::move(spec), [&](core::CellContext&) {
      return run_crash_cell(trace.packets, cli, clf, kill_tick, total_packets);
    });
  }

  // Chaos matrix: deterministic fault injection per subsystem. The breaker
  // cell must show a full closed→open→half-open→closed timeline.
  const int classes = clf->num_classes();
  std::shared_ptr<const serve::FlowClassifier> fallback =
      std::make_shared<serve::HeuristicClassifier>(
          clf->feature_dim(), classes, [classes](const float* f) {
            const float v = f[0] > 0 ? f[0] : 0.0f;
            return static_cast<int>(
                static_cast<std::uint64_t>(v < 1e9f ? v : 1e9f) % classes);
          });
  const std::pair<ChaosMode, const char*> kChaosModes[] = {
      {ChaosMode::kBreaker, "breaker"},
      {ChaosMode::kAlloc, "alloc"},
      {ChaosMode::kIo, "io"},
  };
  for (const auto& [mode, name] : kChaosModes) {
    core::CellSpec spec{"serve", "chaos", name,
                        core::generic_cell_key({"serve", "chaos", name})};
    const std::uint64_t seed =
        env_cfg.seed * 1000003 + static_cast<std::uint64_t>(mode) + 1;
    run_serve_cell(std::move(spec), [&](core::CellContext&) {
      return run_chaos_cell(trace.packets, cli, clf, fallback, seed, mode,
                            total_packets);
    });
  }

  std::printf("\n| cell | load | verdict acc | p99 us | shed/evict |\n");
  std::printf("|---|---|---|---|---|\n");
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& spec = specs[i];
    const auto& o = outcomes[i];
    std::string detail = "FAILED";
    if (o.ok()) {
      const core::Json* serve = o.summary.extra.find("serve");
      const core::Json* lat = serve ? serve->find("latency") : nullptr;
      const core::Json* ctr = serve ? serve->find("counters") : nullptr;
      double p99 = lat && lat->find("p99_us") ? lat->find("p99_us")->number_or(0) : 0;
      auto counter = [&](const char* name) -> double {
        const core::Json* v = ctr ? ctr->find(name) : nullptr;
        return v ? v->number_or(0) : 0;
      };
      char buf[128];
      std::snprintf(buf, sizeof buf, "%.1f%% | %.0f | %d/%d",
                    100 * o.summary.accuracy, p99,
                    static_cast<int>(counter("packets_rejected") +
                                     counter("packets_shed_new_flow")),
                    static_cast<int>(counter("evicted_idle") +
                                     counter("evicted_early") +
                                     counter("evicted_sampled")));
      detail = buf;
    }
    std::printf("| %s | %s | %s |\n", spec.row.c_str(), spec.col.c_str(),
                detail.c_str());
  }

  return sup.finalize() ? 0 : 1;
}
