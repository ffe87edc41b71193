#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "core/chaos.h"
#include "core/trace.h"
#include "net/parser.h"

namespace sugar::serve {
namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-thread mean-feature scratch; sized on first use per engine dim.
std::vector<float>& mean_scratch(std::size_t dim) {
  thread_local std::vector<float> scratch;
  if (scratch.size() < dim) scratch.resize(dim);
  return scratch;
}

}  // namespace

const char* to_string(ShedStage s) {
  switch (s) {
    case ShedStage::kNone: return "none";
    case ShedStage::kDropNewFlows: return "drop-new-flows";
    case ShedStage::kEarlyClassify: return "early-classify";
    case ShedStage::kSampleEvict: return "sample-evict";
  }
  return "?";
}

const char* to_string(VerdictReason r) {
  switch (r) {
    case VerdictReason::kFirstN: return "first-n";
    case VerdictReason::kEvictIdle: return "evict-idle";
    case VerdictReason::kEvictEarly: return "evict-early";
    case VerdictReason::kEvictSampled: return "evict-sampled";
    case VerdictReason::kFlush: return "flush";
  }
  return "?";
}

ServeEngine::ServeEngine(ServeConfig cfg,
                         std::shared_ptr<const FlowClassifier> classifier)
    : cfg_(std::move(cfg)),
      classifier_(std::move(classifier)),
      table_([&] {
        FlowTableConfig t = cfg_.table;
        t.feature_dim = flow_feature_dim(cfg_.features);
        t.classify_at = cfg_.features.first_n;
        if (cfg_.chaos) {
          t.alloc_fault = [chaos = cfg_.chaos] {
            return chaos->should_fire(core::ChaosSite::kFlowTableAlloc);
          };
        }
        return t;
      }()) {
  feature_dim_ = table_.config().feature_dim;
  ring_.resize(cfg_.queue_capacity + cfg_.batch_size);
  batch_.resize(cfg_.batch_size);
  keys_.resize(cfg_.batch_size);
  kinds_.resize(cfg_.batch_size);
  features_.resize(cfg_.batch_size * feature_dim_);
  order_.resize(table_.shard_count());
  shard_active_ = std::vector<std::atomic<std::uint8_t>>(table_.shard_count());
  quarantined_ = std::vector<std::atomic<std::uint8_t>>(table_.shard_count());
  clean_rounds_ = std::vector<std::atomic<std::uint32_t>>(table_.shard_count());
  if (classifier_ && classifier_->feature_dim() != feature_dim_) {
    std::fprintf(stderr,
                 "serve: classifier dim %zu != featurizer dim %zu — "
                 "verdicts will be garbage\n",
                 classifier_->feature_dim(), feature_dim_);
  }
  stats_.gauges.table_bytes_cap = table_.bytes_cap();
  if (cfg_.watchdog_timeout_s > 0)
    watchdog_ = std::thread([this] { watchdog_loop(); });
}

ServeEngine::~ServeEngine() {
  if (watchdog_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watchdog_mu_);
      stop_watchdog_.store(true);
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
  }
}

void ServeEngine::push_locked(const net::Packet& pkt, std::uint64_t enq_ns) {
  QueueEntry& e = ring_[ring_slot(count_)];
  e.pkt.ts_usec = pkt.ts_usec;
  e.pkt.data.assign(pkt.data.begin(), pkt.data.end());
  e.enq_ns = enq_ns;
  ++count_;
}

bool ServeEngine::offer(const net::Packet& pkt) {
  offered_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (count_ >= cfg_.queue_capacity) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  push_locked(pkt, now_ns());
  peak_queue_depth_ = std::max<std::uint64_t>(peak_queue_depth_, count_);
  return true;
}

ShedStage ServeEngine::evaluate_stage(std::size_t queued, std::size_t live) {
  const double queue_frac =
      static_cast<double>(queued) / static_cast<double>(cfg_.queue_capacity);
  const double table_frac = static_cast<double>(live) /
                            static_cast<double>(table_.config().max_flows);
  ShedStage desired = ShedStage::kNone;
  if (queue_frac >= cfg_.queue_hi && table_frac >= cfg_.table_hi)
    desired = ShedStage::kSampleEvict;
  else if (table_frac >= cfg_.table_hi)
    desired = ShedStage::kEarlyClassify;
  else if (queue_frac >= cfg_.queue_hi)
    desired = ShedStage::kDropNewFlows;

  const auto current = static_cast<ShedStage>(stage_.load(std::memory_order_relaxed));
  ShedStage next = desired;
  if (desired < current) {
    // Hysteresis: step down only once both pressures are clearly relieved.
    const bool relieved =
        queue_frac <= cfg_.queue_lo && table_frac <= cfg_.table_lo;
    next = relieved ? desired : current;
  }
  if (next != current) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (next > current)
      ++stats_.counters.shed_stage_enters;
    else
      ++stats_.counters.shed_stage_exits;
    stage_.store(static_cast<std::uint32_t>(next), std::memory_order_relaxed);
  }
  return next;
}

void ServeEngine::classify_into(std::size_t shard, const FlowView& v,
                                VerdictReason reason, RoundDelta& delta) {
  if (v.classified) return;  // labelled at first-N already
  if (v.feature_packets <
      (reason == VerdictReason::kFirstN ? 1u : kMinClassifyPackets)) {
    ++delta.counters.evicted_unclassified;
    return;
  }
  // Mean over the packets actually folded in. The 1/n-multiply matches
  // batch_flow_features() exactly, so an at-N verdict is bit-identical to
  // the offline feature of the same prefix.
  auto& mean = mean_scratch(feature_dim_);
  const float inv = 1.0f / static_cast<float>(v.feature_packets);
  for (std::size_t d = 0; d < feature_dim_; ++d)
    mean[d] = v.feature_sum[d] * inv;
  // A quarantined shard's verdicts come from the cheap fallback so a stuck
  // or faulty primary can't stall the whole round again.
  const FlowClassifier* clf = classifier_.get();
  bool via_fallback = false;
  if (cfg_.fallback &&
      quarantined_[shard].load(std::memory_order_relaxed) != 0) {
    clf = cfg_.fallback.get();
    via_fallback = true;
  }
  const int label = clf ? clf->classify(mean.data()) : -1;
  if (via_fallback) ++delta.counters.fallback_classified;
  if (reason == VerdictReason::kFirstN)
    ++delta.counters.classified_at_n;
  else
    ++delta.counters.classified_on_evict;
  if (cfg_.record_verdicts) {
    Verdict verdict;
    verdict.key = v.key;
    verdict.label = label;
    verdict.packets = v.packets;
    verdict.feature_packets = v.feature_packets;
    verdict.reason = reason;
    verdict.first_ts_usec = v.first_ts_usec;
    verdict.last_ts_usec = v.last_ts_usec;
    delta.verdicts.push_back(verdict);
  }
}

void ServeEngine::process_shard(std::size_t shard, std::uint64_t round_now,
                                ShedStage stage) {
  SUGAR_TRACE_SPAN("serve.shard");
  if (cfg_.shard_hook) cfg_.shard_hook(shard);
  if (cfg_.chaos)
    cfg_.chaos->maybe_stall(core::ChaosSite::kShardStall, &round_abort_);
  const std::vector<std::uint32_t>& order = order_[shard];

  // 1. Idle sweep on the stream's virtual clock.
  delta_.counters.evicted_idle += table_.evict_idle(
      shard, round_now, cfg_.idle_timeout_usec, [&](const FlowView& v) {
        classify_into(shard, v, VerdictReason::kEvictIdle, delta_);
      });

  // 2. Fold this shard's packets in arrival order, polling the abort flag
  // so a watchdog-forced round restart can reclaim the rest of the batch.
  const bool admit_new = stage < ShedStage::kDropNewFlows;
  std::size_t processed = order.size();
  for (std::size_t oi = 0; oi < order.size(); ++oi) {
    if (round_abort_.load(std::memory_order_relaxed)) {
      delta_.requeued.insert(delta_.requeued.end(), order.begin() + oi,
                             order.end());
      processed = oi;
      break;
    }
    const std::uint32_t idx = order[oi];
    auto res = table_.touch(shard, keys_[idx], batch_[idx].pkt.ts_usec,
                            features_.data() + std::size_t{idx} * feature_dim_,
                            admit_new);
    switch (res.status) {
      case ShardedFlowTable::TouchStatus::kNotAdmitted:
        ++delta_.counters.packets_shed_new_flow;
        continue;
      case ShardedFlowTable::TouchStatus::kFull:
        ++delta_.counters.flows_rejected_full;
        continue;
      case ShardedFlowTable::TouchStatus::kCreated:
        ++delta_.counters.flows_created;
        break;
      case ShardedFlowTable::TouchStatus::kExisting:
        break;
    }
    if (res.ready) {
      const FlowView v = table_.view(shard, res.slot);
      classify_into(shard, v, VerdictReason::kFirstN, delta_);
      table_.mark_classified(shard, res.slot);
    }
  }

  // 3. Shed-ladder sweeps, most aggressive last (skipped by an aborted
  // shard — bail fast). Targets pull occupancy back to the low watermark
  // so the ladder can actually step down.
  const bool aborted = processed < order.size();
  const auto target = static_cast<std::size_t>(
      cfg_.table_lo * static_cast<double>(table_.shard_capacity()));
  if (!aborted && stage >= ShedStage::kEarlyClassify) {
    delta_.counters.evicted_early += table_.evict_ready(
        shard, target, kMinClassifyPackets, kEvictScan,
        [&](const FlowView& v) {
          classify_into(shard, v, VerdictReason::kEvictEarly, delta_);
        });
  }
  if (!aborted && stage >= ShedStage::kSampleEvict) {
    std::size_t forced = 0;
    while (table_.live(shard) > target && forced < kEvictScan) {
      if (!table_.evict_tail(shard, [&](const FlowView& v) {
            classify_into(shard, v, VerdictReason::kEvictSampled, delta_);
          }))
        break;
      ++forced;
    }
    delta_.counters.evicted_sampled += forced;
  }

  // 4. Per-packet latency (enqueue -> shard completion) for the packets
  // this shard actually consumed. Wall-clock only; never feeds back into
  // any decision.
  const std::uint64_t end_ns = now_ns();
  for (std::size_t oi = 0; oi < processed; ++oi)
    delta_.latency.record(end_ns -
                         std::min(end_ns, batch_[order[oi]].enq_ns));
}

std::size_t ServeEngine::pump() {
  std::lock_guard<std::mutex> pump_lock(pump_mu_);
  SUGAR_TRACE_SPAN("serve.pump");

  // Drain: swap up to batch_size entries out of the ring into batch_, so
  // the ring keeps the batch's previous buffers and nothing is allocated.
  std::size_t depth_at_start = 0;
  std::size_t n = 0;
  {
    SUGAR_TRACE_SPAN("serve.pump.drain");
    std::lock_guard<std::mutex> lock(queue_mu_);
    depth_at_start = count_;
    n = std::min(cfg_.batch_size, count_);
    for (std::size_t i = 0; i < n; ++i)
      std::swap(batch_[i], ring_[ring_slot(i)]);
    count_ -= n;
    head_ = count_ == 0 ? 0 : ring_slot(n);
  }
  const ShedStage stage = evaluate_stage(depth_at_start, table_.live_total());
  if (n == 0) return 0;
  const std::size_t shards = table_.shard_count();

  // Prepare: parse, key and featurize every packet.
  enum : std::uint8_t { kOk = 0, kKeyless = 1, kMalformed = 2 };
  {
    SUGAR_TRACE_SPAN("serve.pump.prepare");
    for (std::size_t i = 0; i < n; ++i) {
      auto parsed = net::parse_packet(batch_[i].pkt);
      if (!parsed.ok()) {
        kinds_[i] = kMalformed;
        continue;
      }
      bool forward = false;
      if (!net::FlowKey::from_parsed(*parsed.parsed, keys_[i], forward)) {
        kinds_[i] = kKeyless;
        continue;
      }
      kinds_[i] = kOk;
      replearn::extract_header_features(batch_[i].pkt, *parsed.parsed,
                                        cfg_.features.spec,
                                        features_.data() + i * feature_dim_);
    }
  }

  // Partition by flow-key hash (a pure function of the key, so a packet's
  // shard depends only on the stream).
  std::uint64_t round_now = virtual_now_usec_.load(std::memory_order_relaxed);
  {
    SUGAR_TRACE_SPAN("serve.pump.partition");
    for (auto& o : order_) o.clear();
    for (std::size_t i = 0; i < n; ++i) {
      round_now = std::max(round_now, batch_[i].pkt.ts_usec);
      if (kinds_[i] == kMalformed) {
        ++delta_.counters.packets_malformed;
      } else if (kinds_[i] == kKeyless) {
        ++delta_.counters.packets_keyless;
      } else {
        order_[table_.shard_of(keys_[i])].push_back(
            static_cast<std::uint32_t>(i));
      }
    }
  }
  virtual_now_usec_.store(round_now, std::memory_order_relaxed);

  // Fold, shard by shard in ascending order: a heartbeat per completed
  // shard lets the watchdog tell a slow round from a stuck one, and the
  // active markers tell it WHICH shard to quarantine.
  {
    SUGAR_TRACE_SPAN("serve.pump.fold");
    round_abort_.store(false, std::memory_order_release);
    round_active_.store(true, std::memory_order_release);
    for (std::size_t s = 0; s < shards; ++s) {
      shard_active_[s].store(1, std::memory_order_release);
      process_shard(s, round_now, stage);
      shard_active_[s].store(0, std::memory_order_release);
      heartbeat_.fetch_add(1, std::memory_order_relaxed);
    }
    round_active_.store(false, std::memory_order_release);
  }

  SUGAR_TRACE_SPAN("serve.pump.merge");
  // Packets an aborted round skipped go back to the FRONT of the ring in
  // arrival order, so the restarted round sees the same stream.
  std::vector<std::uint32_t>& requeued = delta_.requeued;
  const std::size_t requeued_count = requeued.size();
  if (requeued_count > 0) {
    std::sort(requeued.begin(), requeued.end());
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (auto it = requeued.rbegin(); it != requeued.rend(); ++it) {
      head_ = (head_ == 0 ? ring_.size() : head_) - 1;
      std::swap(ring_[head_], batch_[*it]);
      ++count_;
    }
    delta_.counters.packets_requeued += requeued_count;
  }

  // Malformed/keyless packets complete here; give them a latency sample too.
  const std::uint64_t end_ns = now_ns();
  for (std::size_t i = 0; i < n; ++i)
    if (kinds_[i] != kOk)
      delta_.latency.record(end_ns - std::min(end_ns, batch_[i].enq_ns));
  // Requeued packets will be counted when a later round consumes them.
  delta_.counters.packets_processed += n - requeued_count;
  ++delta_.counters.rounds;

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    merge_delta(delta_);
    peak_flows_ = std::max<std::uint64_t>(peak_flows_, table_.live_total());
  }

  // A completed (non-aborted) round is a clean round for every quarantined
  // shard; two in a row lift the quarantine.
  if (requeued_count == 0) {
    for (std::size_t s = 0; s < shards; ++s) {
      if (quarantined_[s].load(std::memory_order_relaxed) == 0) continue;
      const std::uint32_t clean =
          clean_rounds_[s].fetch_add(1, std::memory_order_relaxed) + 1;
      if (clean >= 2) {
        quarantined_[s].store(0, std::memory_order_relaxed);
        {
          std::lock_guard<std::mutex> lock(stats_mu_);
          ++stats_.counters.watchdog_recoveries;
        }
        std::fprintf(stderr,
                     "serve: watchdog — shard %zu recovered after %u clean "
                     "rounds; primary classifier restored\n",
                     s, clean);
      }
    }
  }
  return n;
}

void ServeEngine::merge_delta(RoundDelta& delta) {
  stats_.counters.merge(delta.counters);
  stats_.latency.merge(delta.latency);
  for (Verdict& v : delta.verdicts) {
    if (verdicts_.size() >= cfg_.max_recorded_verdicts) {
      ++stats_.counters.verdicts_dropped;
      continue;
    }
    verdicts_.push_back(std::move(v));
  }
  delta.counters = ServeCounters{};
  delta.latency = LatencyHistogram{};
  delta.verdicts.clear();
  delta.requeued.clear();
}

void ServeEngine::drain() {
  while (pump() > 0) {
  }
}

std::size_t ServeEngine::evict_idle_now(std::uint64_t now_usec) {
  // Runs beside pump() (a background evictor), so it fills its own delta,
  // not the round's.
  std::size_t evicted = 0;
  RoundDelta delta;
  for (std::size_t s = 0; s < table_.shard_count(); ++s) {
    evicted += table_.evict_idle(s, now_usec, cfg_.idle_timeout_usec,
                                 [&](const FlowView& v) {
                                   classify_into(s, v,
                                                 VerdictReason::kEvictIdle,
                                                 delta);
                                 });
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.counters.evicted_idle += evicted;
  merge_delta(delta);
  return evicted;
}

void ServeEngine::flush() {
  std::lock_guard<std::mutex> pump_lock(pump_mu_);
  std::size_t evicted = 0;
  for (std::size_t s = 0; s < table_.shard_count(); ++s)
    evicted += table_.evict_all(s, [&](const FlowView& v) {
      classify_into(s, v, VerdictReason::kFlush, delta_);
    });
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.counters.evicted_flush += evicted;
  merge_delta(delta_);
}

ServeStats ServeEngine::stats() const {
  ServeStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    out = stats_;
    out.gauges.peak_flows = peak_flows_;
  }
  out.counters.packets_offered = offered_.load(std::memory_order_relaxed);
  out.counters.packets_rejected = rejected_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    out.gauges.queue_depth = count_;
    out.gauges.peak_queue_depth = peak_queue_depth_;
  }
  out.gauges.current_flows = table_.live_total();
  out.gauges.peak_flows = std::max(out.gauges.peak_flows, out.gauges.current_flows);
  out.gauges.table_bytes = table_.bytes_resident();
  out.gauges.table_bytes_cap = table_.bytes_cap();
  out.gauges.shed_stage = stage_.load(std::memory_order_relaxed);
  out.gauges.virtual_now_usec = virtual_now_usec_.load(std::memory_order_relaxed);
  return out;
}

std::size_t ServeEngine::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  return count_;
}

std::vector<Verdict> ServeEngine::take_verdicts() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  std::vector<Verdict> out;
  out.swap(verdicts_);
  return out;
}

void ServeEngine::watchdog_loop() {
  const auto timeout = std::chrono::duration<double>(cfg_.watchdog_timeout_s);
  std::uint64_t last_beat = heartbeat_.load(std::memory_order_relaxed);
  auto last_change = std::chrono::steady_clock::now();
  // Escalation within one stall episode: 0 none, 1 flagged (1x timeout),
  // 2 quarantined (2x), 3 round aborted (4x). Resets when the heartbeat
  // moves again.
  int escalation = 0;
  std::unique_lock<std::mutex> lock(watchdog_mu_);
  while (!stop_watchdog_.load(std::memory_order_relaxed)) {
    watchdog_cv_.wait_for(lock, timeout / 4, [this] {
      return stop_watchdog_.load(std::memory_order_relaxed);
    });
    if (stop_watchdog_.load(std::memory_order_relaxed)) break;
    const std::uint64_t beat = heartbeat_.load(std::memory_order_relaxed);
    const auto now = std::chrono::steady_clock::now();
    if (beat != last_beat || !round_active_.load(std::memory_order_acquire)) {
      last_beat = beat;
      last_change = now;
      escalation = 0;
      continue;
    }
    const auto stalled = now - last_change;
    if (escalation < 1 && stalled >= timeout) {
      escalation = 1;
      {
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.counters.watchdog_stalls;
      }
      std::fprintf(stderr,
                   "serve: watchdog — round stuck for %.1fs (heartbeat %llu); "
                   "a shard's fold is not making progress\n",
                   cfg_.watchdog_timeout_s,
                   static_cast<unsigned long long>(beat));
    }
    if (escalation < 2 && stalled >= 2 * timeout) {
      escalation = 2;
      std::size_t quarantined = 0;
      for (std::size_t s = 0; s < shard_active_.size(); ++s) {
        if (shard_active_[s].load(std::memory_order_acquire) != 0 &&
            quarantined_[s].load(std::memory_order_relaxed) == 0) {
          clean_rounds_[s].store(0, std::memory_order_relaxed);
          quarantined_[s].store(1, std::memory_order_relaxed);
          ++quarantined;
        }
      }
      if (quarantined > 0) {
        {
          std::lock_guard<std::mutex> stats_lock(stats_mu_);
          stats_.counters.watchdog_quarantines += quarantined;
        }
        std::fprintf(stderr,
                     "serve: watchdog — quarantined %zu stuck shard(s); "
                     "their flows route to the fallback classifier\n",
                     quarantined);
      }
    }
    if (escalation < 3 && stalled >= 4 * timeout) {
      escalation = 3;
      round_abort_.store(true, std::memory_order_release);
      {
        std::lock_guard<std::mutex> stats_lock(stats_mu_);
        ++stats_.counters.watchdog_round_aborts;
      }
      std::fprintf(stderr,
                   "serve: watchdog — forcing round restart after %.1fs; "
                   "unprocessed packets will be re-queued\n",
                   4 * cfg_.watchdog_timeout_s);
    }
  }
}

}  // namespace sugar::serve
