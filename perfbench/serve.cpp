// Serve workloads: the online path (offer -> parse -> featurize -> flow-table
// fold -> classify -> verdict) through serve::ServeEngine, driven from the
// main thread, which is also the caller thread of the engine's pool.
//
//   serve_paced     open loop: packet i is due at t0 + i / rate, whatever
//                   the engine is doing; the flow table has room for every
//                   concurrent flow, so packets mostly join resident flows.
//   serve_saturate  closed loop: one batch offered per pump(), so the queue
//                   never builds; the flow table is smaller than the peak of
//                   concurrent flows, so new flows run the create/evict path.
//
// Latency is exact: every accepted offer is queued FIFO with its due time,
// and each pump() return pops the packets it processed (pump drains the
// ingest queue in offer order). The engine's own log2 histogram is not read.
#include <cstdio>
#include <memory>
#include <unordered_map>

#include "ml/forest.h"
#include "ml/metrics.h"
#include "net/flow.h"
#include "net/parser.h"
#include "perfbench.h"
#include "replearn/featurize.h"
#include "serve/classifier.h"
#include "serve/engine.h"
#include "serve/flow_features.h"
#include "serve/flow_table.h"
#include "trafficgen/datasets.h"

namespace perfbench {
namespace {

using sugar::net::FlowKey;
using sugar::net::Packet;
namespace serve = sugar::serve;

struct ServeWorkload {
  bool paced = false;
  /// ISCX-VPN flows per class of the training capture (SUGAR_SCALE=1) and
  /// of the served capture. The generator spreads flows over a window that
  /// grows with their number, so a longer served capture keeps the same
  /// concurrency and averages over more flows.
  std::size_t train_flows_per_class = 30;
  std::size_t served_flows_per_class = 60;
  std::size_t max_flows = 256;
  std::size_t shards = 8;
  std::size_t queue_capacity = 2048;
  std::size_t batch_size = 256;
  std::size_t pass_packets = 400'000;  // one pass replays this many packets
  double rate_pps = 0;                 // serve_paced offered load
  int setup_reps = 3;
};

ServeWorkload make_workload(const Options& o) {
  ServeWorkload w;
  w.paced = o.workload == "serve_paced";
  if (w.paced) {
    // About a third of serve_saturate's capacity on the 4-core reference
    // machine (README.md), and a table far above the stream's peak of
    // concurrent flows. The engine's default queue rides out a scheduler
    // stall of ~15 ms at this rate without reaching the shed watermark.
    w.rate_pps = 300'000;
    w.max_flows = 512;
    w.queue_capacity = serve::ServeConfig{}.queue_capacity;
    w.pass_packets = 600'000;
  } else {
    // Below the stream's peak concurrent flows, so the table fills.
    w.max_flows = 48;
    w.pass_packets = 1'000'000;
  }
  if (o.tiny) {
    w.train_flows_per_class = 4;
    w.served_flows_per_class = 4;
    w.pass_packets = 20'000;
    w.setup_reps = 1;
  }
  return w;
}

/// The served trace repeated end to end, each loop shifted by the trace's
/// span so stream time never runs backwards. Fills a caller-owned packet so
/// the generator reuses one buffer.
class LoopedStream {
 public:
  explicit LoopedStream(const std::vector<Packet>& pkts) : pkts_(pkts) {
    for (const Packet& p : pkts) span_usec_ = std::max(span_usec_, p.ts_usec);
    span_usec_ += 1'000;
  }

  void at(std::size_t pos, Packet& out) const {
    const Packet& src = pkts_[pos % pkts_.size()];
    out.data.assign(src.data.begin(), src.data.end());
    out.ts_usec = src.ts_usec + (pos / pkts_.size()) * span_usec_;
  }

 private:
  const std::vector<Packet>& pkts_;
  std::uint64_t span_usec_ = 0;
};

struct ServeData {
  sugar::trafficgen::GeneratedTrace trace;  // the served stream
  std::shared_ptr<const serve::ForestFlowClassifier> clf;
  std::unordered_map<FlowKey, int, sugar::net::FlowKeyHash> truth;
  int num_classes = 0;
  std::size_t train_rows = 0;
};

std::vector<int> class_labels(const sugar::trafficgen::GeneratedTrace& t) {
  std::vector<int> labels(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) labels[i] = t.labels[i].cls;
  return labels;
}

/// Generates a training capture and a served capture (two seeds of the
/// same generator, so verdicts are scored on held-out flows), fits the
/// forest on the training capture's first-N flow features, and labels the
/// served flows from generator truth.
ServeData setup(const ServeWorkload& w, std::uint64_t seed, Probes& probes) {
  sugar::trafficgen::GenOptions g;
  g.flows_per_class = w.train_flows_per_class;
  g.spurious_fraction = 0.05;
  g.seed = seed ^ 0x7EA1;
  const auto train = probes.time("trafficgen.generate_s",
                                 [&] { return sugar::trafficgen::generate_iscx_vpn(g); });
  g.seed = seed;
  g.flows_per_class = w.served_flows_per_class;
  ServeData d;
  d.trace = probes.time("trafficgen.generate_s",
                        [&] { return sugar::trafficgen::generate_iscx_vpn(g); });
  d.num_classes = static_cast<int>(d.trace.class_names.size());

  const serve::FlowFeatureConfig fcfg;
  const auto train_labels = class_labels(train);
  const auto flows = serve::batch_flow_features(train.packets, &train_labels, fcfg);
  std::vector<std::size_t> labelled;
  for (std::size_t i = 0; i < flows.labels.size(); ++i)
    if (flows.labels[i] >= 0) labelled.push_back(i);
  sugar::ml::Matrix x(labelled.size(), flows.x.cols());
  std::vector<int> y(labelled.size());
  for (std::size_t r = 0; r < labelled.size(); ++r) {
    std::copy_n(flows.x.row(labelled[r]), flows.x.cols(), x.row(r));
    y[r] = flows.labels[labelled[r]];
  }
  sugar::ml::ForestConfig forest;
  forest.num_trees = 24;
  d.clf = probes.time("ml.rf.fit_s", [&] {
    return serve::fit_forest_classifier(x, y, d.num_classes, forest);
  });
  d.train_rows = x.rows();

  const auto served_labels = class_labels(d.trace);
  const auto served = serve::batch_flow_features(d.trace.packets, &served_labels, fcfg);
  for (std::size_t i = 0; i < served.keys.size(); ++i)
    d.truth.emplace(served.keys[i], served.labels[i]);
  return d;
}

// ---------------------------------------------------------------------------
// Engine pass

struct PassOut {
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<float> lat_us;  // due time -> return of the pump that processed it
  std::uint64_t offers = 0;
  std::uint64_t accepted = 0;
  std::uint64_t pumps = 0;
  std::uint64_t pumped = 0;
  // Probed passes only.
  double offer_ns = 0;
  std::vector<float> pump_us, queue_wait_us, gen_late_us, queue_depth;
  serve::ServeCounters counters;
  std::uint64_t peak_flows = 0;
  std::size_t queue_left = 0;
  std::vector<serve::Verdict> verdicts;  // scored, then dropped
  std::size_t verdict_count = 0;
};

/// Latency percentiles are taken exactly per window of this many
/// consecutive packets, and the lower quartile over windows is reported.
/// The host is a shared VM: a stolen vCPU stalls a round for up to tens of
/// ms, and a whole-run p99 mostly measured how often that happened. A
/// window of 100 packets (0.33 ms in serve_paced) leaves one sample beyond
/// its p99, and a stall or a late pool wake-up moves only the windows it
/// hits; the reading moves once three quarters of the windows are slower.
/// Over eight serve_paced runs, the spread of this p99 was 0.069 of its
/// median with 100-packet windows and 0.132 with 1000-packet windows.
constexpr std::size_t kLatencyWindow = 100;

/// Appends the exact p50 and p99 of each whole window of `lat`.
void window_percentiles(const std::vector<float>& lat, std::vector<double>& p50,
                        std::vector<double>& p99) {
  for (std::size_t lo = 0; lo + kLatencyWindow <= lat.size(); lo += kLatencyWindow) {
    const std::vector<float> window(lat.begin() + static_cast<std::ptrdiff_t>(lo),
                                    lat.begin() + static_cast<std::ptrdiff_t>(lo + kLatencyWindow));
    p50.push_back(percentile(window, 0.50));
    p99.push_back(percentile(window, 0.99));
  }
}

float micros(Clock::duration d) {
  return std::chrono::duration<float, std::micro>(d).count();
}

PassOut run_engine_pass(const ServeWorkload& w, const ServeData& d, const LoopedStream& stream,
                        bool probed) {
  serve::ServeConfig cfg;
  cfg.table.shards = w.shards;
  cfg.table.max_flows = w.max_flows;
  cfg.queue_capacity = w.queue_capacity;
  cfg.batch_size = w.batch_size;
  cfg.record_verdicts = true;
  serve::ServeEngine engine(cfg, d.clf);

  struct Pending {
    Clock::time_point due;
    Clock::time_point offered;
  };
  const std::size_t n = w.pass_packets;
  std::vector<Pending> fifo;
  fifo.reserve(n);
  std::size_t head = 0;
  PassOut out;
  out.lat_us.reserve(n);
  Packet pkt;

  const auto offer = [&](std::size_t i, Clock::time_point due) {
    stream.at(i, pkt);
    const Clock::time_point t0 = Clock::now();
    const bool ok = engine.offer(pkt);
    if (probed) {
      out.offer_ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
      out.gen_late_us.push_back(micros(t0 - due));
    }
    ++out.offers;
    if (ok) fifo.push_back({due, t0});
  };
  const auto pump = [&]() -> std::size_t {
    if (probed) out.queue_depth.push_back(static_cast<float>(fifo.size() - head));
    const Clock::time_point start = Clock::now();
    const std::size_t done = engine.pump();
    const Clock::time_point end = Clock::now();
    for (std::size_t k = 0; k < done && head < fifo.size(); ++k, ++head) {
      out.lat_us.push_back(micros(end - fifo[head].due));
      if (probed) out.queue_wait_us.push_back(micros(start - fifo[head].offered));
    }
    if (probed) out.pump_us.push_back(micros(end - start));
    ++out.pumps;
    out.pumped += done;
    return done;
  };

  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  std::size_t i = 0;
  if (w.paced) {
    const auto due = [&](std::size_t k) {
      return t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(
                      1e9 * static_cast<double>(k) / w.rate_pps));
    };
    while (i < n) {
      // At most one batch of due packets between pumps: after a stall of
      // this thread the generator catches up at the engine's pace instead
      // of flooding the queue in one burst; serve.gen_late_us_p99 shows it.
      const Clock::time_point now = Clock::now();
      for (std::size_t k = 0; k < w.batch_size && i < n && due(i) <= now; ++k, ++i)
        offer(i, due(i));
      if (head < fifo.size()) {
        pump();
      } else if (i < n) {
        const Clock::time_point next = due(i);
        while (Clock::now() < next) {
        }
      }
    }
  } else {
    while (i < n) {
      for (std::size_t k = 0; k < w.batch_size && i < n; ++k, ++i) offer(i, Clock::now());
      pump();
    }
  }
  // Drain; a pump that processes nothing would leave the FIFO check to fail.
  while (head < fifo.size() && pump() > 0) {
  }
  engine.flush();
  out.wall_s = seconds_since(t0);
  out.cpu_s = process_cpu_s() - cpu0;
  out.accepted = fifo.size();
  const serve::ServeStats stats = engine.stats();
  out.counters = stats.counters;
  out.peak_flows = stats.gauges.peak_flows;
  out.queue_left = engine.queue_depth();
  out.verdicts = engine.take_verdicts();
  out.verdict_count = out.verdicts.size();
  return out;
}

struct Scored {
  double macro_f1 = 0;
  bool ok = true;
};

/// Verdict macro-F1 against generator truth, computed from the verdicts;
/// flows without a labelled truth (spurious traffic) are not scored.
Scored score(const ServeData& d, const std::vector<serve::Verdict>& verdicts) {
  std::vector<int> truth, pred;
  for (const serve::Verdict& v : verdicts) {
    auto it = d.truth.find(v.key);
    if (it == d.truth.end() || it->second < 0) continue;
    truth.push_back(it->second);
    pred.push_back(v.label);
  }
  if (truth.empty()) return {0, false};
  const sugar::ml::Metrics m = sugar::ml::evaluate(truth, pred, d.num_classes);
  // Single-label multi-class: micro-F1 is accuracy.
  return {m.macro_f1, std::abs(m.micro_f1 - m.accuracy) < 1e-12};
}

// ---------------------------------------------------------------------------
// Layer replay (traced run): the same stream, single-threaded, one timed
// call per layer per packet.

void replay_layers(const ServeWorkload& w, const ServeData& d, const LoopedStream& stream,
                   Result& r) {
  const serve::FlowFeatureConfig fcfg;
  const std::size_t dim = serve::flow_feature_dim(fcfg);
  serve::FlowTableConfig tcfg;
  tcfg.shards = w.shards;
  tcfg.max_flows = w.max_flows;
  tcfg.feature_dim = dim;
  tcfg.classify_at = fcfg.first_n;
  serve::ShardedFlowTable table(tcfg);
  const serve::ServeConfig engine_defaults;
  const auto ignore = [](const serve::FlowView&) {};

  std::vector<float> feat(dim), mean(dim);
  double parse_ns = 0, feat_ns = 0, touch_ns = 0, create_ns = 0, classify_ns = 0;
  std::uint64_t malformed = 0, keyless = 0, featurized = 0, touches = 0, creates = 0,
                classified = 0;
  std::uint64_t now_usec = 0;
  const auto ns = [](Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::nano>(b - a).count();
  };
  Packet pkt;
  for (std::size_t i = 0; i < w.pass_packets; ++i) {
    stream.at(i, pkt);
    // Idle sweep once per engine-sized batch, on the stream's clock (as the
    // engine does at each round start); untimed.
    if (i % w.batch_size == 0)
      for (std::size_t s = 0; s < table.shard_count(); ++s)
        table.evict_idle(s, now_usec, engine_defaults.idle_timeout_usec, ignore);
    now_usec = std::max(now_usec, pkt.ts_usec);

    const auto t0 = Clock::now();
    const auto parsed = sugar::net::parse_packet(pkt);
    FlowKey key;
    bool forward = false;
    const bool keyed = parsed.ok() && FlowKey::from_parsed(*parsed.parsed, key, forward);
    const auto t1 = Clock::now();
    parse_ns += ns(t0, t1);
    if (!parsed.ok()) {
      ++malformed;
      continue;
    }
    if (!keyed) {
      ++keyless;
      continue;
    }
    sugar::replearn::extract_header_features(pkt, *parsed.parsed, fcfg.spec, feat.data());
    const auto t2 = Clock::now();
    feat_ns += ns(t1, t2);
    ++featurized;

    const std::size_t shard = table.shard_of(key);
    auto res = table.touch(shard, key, pkt.ts_usec, feat.data(), true);
    if (res.status == serve::ShardedFlowTable::TouchStatus::kFull) {
      table.evict_tail(shard, ignore);  // admit by replacing the coldest flow
      res = table.touch(shard, key, pkt.ts_usec, feat.data(), true);
    }
    const auto t3 = Clock::now();
    if (res.status == serve::ShardedFlowTable::TouchStatus::kExisting) {
      touch_ns += ns(t2, t3);
      ++touches;
    } else {
      create_ns += ns(t2, t3);
      ++creates;
    }
    if (res.ready) {
      const serve::FlowView v = table.view(shard, res.slot);
      const float inv = 1.0f / static_cast<float>(v.feature_packets);
      for (std::size_t k = 0; k < dim; ++k) mean[k] = v.feature_sum[k] * inv;
      (void)d.clf->classify(mean.data());
      table.mark_classified(shard, res.slot);
      classify_ns += ns(t3, Clock::now());
      ++classified;
    }
  }
  const auto per = [](double total, std::uint64_t count) {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  const double pkts = static_cast<double>(w.pass_packets);
  r.values["net.parse_ns_per_pkt"] = parse_ns / pkts;
  r.values["net.malformed_frac"] = static_cast<double>(malformed) / pkts;
  r.values["net.keyless_frac"] = static_cast<double>(keyless) / pkts;
  r.values["serve.featurize_ns_per_pkt"] = per(feat_ns, featurized);
  r.values["serve.table.touch_ns"] = per(touch_ns, touches);
  r.values["serve.table.create_ns"] = per(create_ns, creates);
  r.values["serve.table.create_frac"] = per(static_cast<double>(creates), touches + creates);
  r.values["serve.classify_ns"] = per(classify_ns, classified);
  r.values["serve.classify_per_kpkt"] = 1000.0 * static_cast<double>(classified) / pkts;
  r.values["serve.flows_created"] = static_cast<double>(creates);
}

}  // namespace

Result run_serve(const Options& o) {
  const ServeWorkload w = make_workload(o);
  Result r;
  Probes probes;
  probes.enabled = o.trace;

  std::vector<double> setup_s;
  ServeData data;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    const auto t0 = Clock::now();
    data = setup(w, o.seed, probes);
    setup_s.push_back(seconds_since(t0));
  }
  const LayerTime gen = probes.get("trafficgen.generate_s");
  const LayerTime fit = probes.get("ml.rf.fit_s");
  const LoopedStream stream(data.trace.packets);

  // Passes keep their counters; plain passes fold their latencies into
  // per-window percentiles right away, so memory does not grow with the
  // number of passes a faster program fits into the run.
  std::vector<PassOut> plain, probed;
  std::vector<double> f1, lat_p50, lat_p99;
  const auto run_t0 = Clock::now();
  double rss = 0;
  bool last_probed = false;
  do {
    const bool is_probed = o.trace && (plain.size() + probed.size()) % 2 == 1;
    last_probed = is_probed;
    PassOut p = run_engine_pass(w, data, stream, is_probed);
    rss = peak_rss_mb();

    const serve::ServeCounters& c = p.counters;
    const std::string pass = "pass " + std::to_string(plain.size() + probed.size());
    r.check(c.packets_offered == p.offers && p.accepted == c.packets_processed,
            pass + ": engine offered/processed counters disagree with the benchmark's count");
    r.check(c.packets_offered == c.packets_rejected + c.packets_processed + p.queue_left &&
                c.packets_requeued == 0,
            pass + ": offered != rejected + processed + queued");
    r.check(p.lat_us.size() == p.accepted, pass + ": FIFO latency accounting lost packets");
    const Scored s = score(data, p.verdicts);
    r.check(s.ok, pass + ": verdict F1 could not be computed from the verdicts");
    f1.push_back(s.macro_f1);
    // The closed loop's offer/pump schedule is fixed, so every pass (probed
    // or not) must reproduce the first exactly. The open loop's schedule
    // follows the clock, so its round boundaries may differ.
    const PassOut& first = plain.empty() ? p : plain.front();
    if (!w.paced)
      r.check(c.to_values() == first.counters.to_values() &&
                  p.verdicts.size() == first.verdict_count && s.macro_f1 == f1.front(),
              pass + ": differs from pass 0");
    // An operation is one offer(); it fails when the engine refuses it.
    // Packets the engine accepts but then sheds are counted in served_frac.
    r.attempted += p.offers;
    r.failed += c.packets_rejected;
    if (!is_probed) window_percentiles(p.lat_us, lat_p50, lat_p99);
    p.lat_us = {};
    p.verdicts = {};
    (is_probed ? probed : plain).push_back(std::move(p));
  } while (!o.tiny ? seconds_since(run_t0) < o.seconds || (o.trace && probed.empty())
                   : (o.trace && probed.empty()));

  const PassOut& last = last_probed ? probed.back() : plain.back();
  r.summary = {{"macro_f1", f1.back()},
               {"offered", static_cast<double>(last.counters.packets_offered)},
               {"processed", static_cast<double>(last.counters.packets_processed)}};
  if (!w.paced) {
    r.summary["flows_created"] = static_cast<double>(last.counters.flows_created);
    r.summary["verdicts"] = static_cast<double>(last.verdict_count);
  }

  std::uint64_t peak_flows = 0;
  for (const auto* passes : {&plain, &probed})
    for (const PassOut& p : *passes) peak_flows = std::max(peak_flows, p.peak_flows);
  std::fprintf(stderr,
               "perfbench: %s: trace %zu packets, %zu flows; %zu passes of %zu packets; "
               "peak resident flows %llu of %zu\n",
               o.workload.c_str(), data.trace.size(), data.trace.num_flows(),
               plain.size() + probed.size(), w.pass_packets,
               static_cast<unsigned long long>(peak_flows), w.max_flows);

  if (!o.trace) {
    std::vector<double> wall, cpu, pps, served;
    for (const PassOut& p : plain) {
      const serve::ServeCounters& c = p.counters;
      wall.push_back(p.wall_s);
      cpu.push_back(p.cpu_s);
      pps.push_back(static_cast<double>(c.packets_processed) / p.wall_s);
      const double lost = static_cast<double>(c.packets_rejected + c.packets_shed_new_flow +
                                              c.flows_rejected_full);
      served.push_back(1.0 - lost / static_cast<double>(c.packets_offered));
    }
    r.values["setup_s"] = median(setup_s);
    r.values["wall_s"] = median(wall);
    r.values["cpu_s"] = median(cpu);
    r.values["macro_f1"] = median(f1);
    r.values["pkts_per_s"] = median(pps);
    r.values["lat_p50_us"] = percentile(lat_p50, 0.25);
    r.values["lat_p99_us"] = percentile(lat_p99, 0.25);
    r.values["served_frac"] = median(served);
    r.values["peak_rss_mb"] = rss;
    return r;
  }

  for (const MetricDef& m : kPerLayer) r.values[m.name] = 0;
  const double reps = static_cast<double>(w.setup_reps);
  r.values["trafficgen.generate_s"] = gen.wall_s / reps;
  r.values["ml.rf.fit_s"] = fit.wall_s / reps;
  r.values["ml.rf.cpu_util"] = fit.cpu_util();
  r.values["ml.rows_fit"] = static_cast<double>(data.train_rows);

  std::vector<float> pump_us, queue_wait, gen_late, depth;
  double offer_ns = 0, offers = 0, pumps = 0, pumped = 0, processed = 0, shed = 0,
         early = 0, sampled = 0, created = 0, verdicts = 0;
  std::vector<double> wall_plain, wall_probed;
  for (const PassOut& p : plain) wall_plain.push_back(p.wall_s);
  for (const PassOut& p : probed) {
    wall_probed.push_back(p.wall_s);
    pump_us.insert(pump_us.end(), p.pump_us.begin(), p.pump_us.end());
    queue_wait.insert(queue_wait.end(), p.queue_wait_us.begin(), p.queue_wait_us.end());
    gen_late.insert(gen_late.end(), p.gen_late_us.begin(), p.gen_late_us.end());
    depth.insert(depth.end(), p.queue_depth.begin(), p.queue_depth.end());
    offer_ns += p.offer_ns;
    offers += static_cast<double>(p.offers);
    pumps += static_cast<double>(p.pumps);
    pumped += static_cast<double>(p.pumped);
    processed += static_cast<double>(p.counters.packets_processed);
    shed += static_cast<double>(p.counters.packets_shed_new_flow);
    early += static_cast<double>(p.counters.evicted_early);
    sampled += static_cast<double>(p.counters.evicted_sampled);
    created += static_cast<double>(p.counters.flows_created);
    verdicts += static_cast<double>(p.verdict_count);
  }
  const double passes = static_cast<double>(probed.size());
  r.values["serve.offer_ns"] = offer_ns / offers;
  r.values["serve.pump_us_p50"] = percentile(pump_us, 0.50);
  r.values["serve.pump_us_p99"] = percentile(pump_us, 0.99);
  r.values["serve.pump_pkts"] = pumped / pumps;
  r.values["serve.queue_wait_us_p99"] = percentile(queue_wait, 0.99);
  r.values["serve.queue_depth_p99"] = percentile(depth, 0.99);
  r.values["serve.gen_late_us_p99"] = percentile(gen_late, 0.99);
  r.values["serve.shed_frac"] = shed / processed;
  r.values["serve.evict_early"] = early / passes;
  r.values["serve.evict_sampled"] = sampled / passes;
  r.values["serve.engine.flows_created"] = created / passes;
  r.values["serve.verdict_yield"] = created > 0 ? verdicts / created : 0;
  r.values["trace_overhead_frac"] = median(wall_probed) / median(wall_plain) - 1.0;
  replay_layers(w, data, stream, r);
  return r;
}

}  // namespace perfbench
