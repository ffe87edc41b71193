// Snapshot serialization for ServeEngine (format documented in snapshot.h).
// Defined here rather than engine.cpp so the whole format — writer, reader,
// staging image, validation — lives in one translation unit. Its integers
// and floats go through net::ByteWriter / ByteReader (net/bytes.h).
#include "serve/snapshot.h"

#include <bit>
#include <chrono>
#include <cstring>
#include <unordered_set>

#include "core/crc32.h"
#include "core/io.h"
#include "core/trace.h"
#include "net/bytes.h"
#include "serve/engine.h"

namespace sugar::serve {

const char* to_string(SnapshotError e) {
  switch (e) {
    case SnapshotError::kNone: return "none";
    case SnapshotError::kIo: return "io";
    case SnapshotError::kBadMagic: return "bad-magic";
    case SnapshotError::kBadVersion: return "bad-version";
    case SnapshotError::kTruncated: return "truncated";
    case SnapshotError::kBadSection: return "bad-section";
    case SnapshotError::kSectionCrc: return "section-crc";
    case SnapshotError::kConfigMismatch: return "config-mismatch";
    case SnapshotError::kTrailingGarbage: return "trailing-garbage";
  }
  return "?";
}

core::Json RecoveryStats::to_json() const {
  core::Json j = core::Json::object();
  j.set("snapshots_saved", core::Json(static_cast<std::size_t>(snapshots_saved)));
  j.set("save_failures", core::Json(static_cast<std::size_t>(save_failures)));
  j.set("snapshots_restored",
        core::Json(static_cast<std::size_t>(snapshots_restored)));
  j.set("restore_failures",
        core::Json(static_cast<std::size_t>(restore_failures)));
  j.set("cold_starts", core::Json(static_cast<std::size_t>(cold_starts)));
  j.set("last_error", core::Json(to_string(last_error)));
  return j;
}

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Section ids, written (and required on read) in strictly ascending order.
enum : std::uint32_t {
  kSecConfig = 1,
  kSecFlows = 2,
  kSecCounters = 3,
  kSecEngine = 4,
  kSecLatency = 5,
  kSecQueue = 6,
  kSecVerdicts = 7,
  kSecCount = 7,
};

// The FlowKey's on-disk layout is part of the snapshot format, so its codec
// lives here rather than in net.
void put_key(net::ByteWriter& w, const net::FlowKey& k) {
  w.u8(k.a_ip.is_v6 ? 1 : 0);
  w.bytes(k.a_ip.bytes);
  w.u8(k.b_ip.is_v6 ? 1 : 0);
  w.bytes(k.b_ip.bytes);
  w.u16le(k.a_port);
  w.u16le(k.b_port);
  w.u8(k.proto);
}

/// Reads a key written by put_key into `k` in place; the caller checks
/// r.ok() once for the whole record.
void get_key(net::ByteReader& r, net::FlowKey& k) {
  k.a_ip.is_v6 = r.u8() != 0;
  r.bytes(k.a_ip.bytes.data(), k.a_ip.bytes.size());
  k.b_ip.is_v6 = r.u8() != 0;
  r.bytes(k.b_ip.bytes.data(), k.b_ip.bytes.size());
  k.a_port = r.u16le();
  k.b_port = r.u16le();
  k.proto = r.u8();
}

void append_section(net::ByteWriter& out, std::uint32_t id,
                    const net::ByteWriter& payload) {
  out.u32le(id);
  out.u64le(payload.size());
  out.bytes(payload.data());
  out.u32le(core::crc32(payload.data()));
}

SnapshotOutcome fail(SnapshotError e, std::string message) {
  return SnapshotOutcome{e, std::move(message)};
}

}  // namespace

// --- save -----------------------------------------------------------------

SnapshotOutcome ServeEngine::save_snapshot(const std::string& path,
                                           core::Io* io) {
  SUGAR_TRACE_SPAN("serve.snapshot.save");
  SnapshotOutcome outcome;
  {
    // Quiesce: no round in flight while we walk the tables.
    std::lock_guard<std::mutex> pump_lock(pump_mu_);

    net::ByteWriter body;
    for (char c : kSnapshotMagic) body.u8(static_cast<std::uint8_t>(c));
    body.u32le(kSnapshotVersion);

    // 1. Config fingerprint.
    net::ByteWriter config;
    config.u64le(table_.shard_count());
    config.u64le(table_.config().max_flows);
    config.u64le(feature_dim_);
    config.u64le(table_.config().classify_at);
    config.u64le(cfg_.queue_capacity);
    config.u64le(cfg_.batch_size);
    config.u64le(kMinClassifyPackets);
    config.u64le(cfg_.idle_timeout_usec);
    config.u64le(ServeCounters{}.to_values().size());
    config.u8(cfg_.record_verdicts ? 1 : 0);
    append_section(body, kSecConfig, config);

    // 2. Flows, per shard in LRU tail→head order (restore_flow inserts at
    // the head, so replaying in this order rebuilds the identical chain).
    net::ByteWriter flows;
    flows.u64le(table_.shard_count());
    for (std::size_t s = 0; s < table_.shard_count(); ++s) {
      net::ByteWriter shard;
      std::uint64_t count = 0;
      table_.for_each_lru(s, [&](const FlowRecord& rec) {
        ++count;
        put_key(shard, rec.key);
        shard.u64le(rec.first_ts_usec);
        shard.u64le(rec.last_ts_usec);
        shard.u32le(rec.packets);
        shard.u32le(rec.feature_packets);
        shard.u8(rec.classified ? 1 : 0);
        for (float f : rec.feature_sum) shard.u32le(std::bit_cast<std::uint32_t>(f));
      });
      flows.u64le(count);
      flows.bytes(shard.data());
    }
    append_section(body, kSecFlows, flows);

    std::uint64_t peak_queue = 0;
    std::uint64_t peak_flows = 0;

    // 3. Counters; 7. verdicts staged now (both under stats_mu_).
    net::ByteWriter counters;
    net::ByteWriter verdicts;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      const auto values = stats_.counters.to_values();
      counters.u64le(values.size());
      for (std::uint64_t v : values) counters.u64le(v);
      peak_flows = peak_flows_;
      verdicts.u64le(verdicts_.size());
      for (const Verdict& v : verdicts_) {
        put_key(verdicts, v.key);
        verdicts.u32le(static_cast<std::uint32_t>(v.label));
        verdicts.u32le(v.packets);
        verdicts.u32le(v.feature_packets);
        verdicts.u8(static_cast<std::uint8_t>(v.reason));
        verdicts.u64le(v.first_ts_usec);
        verdicts.u64le(v.last_ts_usec);
      }
    }
    append_section(body, kSecCounters, counters);

    // 6. Queue staged under queue_mu_ (written after engine + latency).
    net::ByteWriter queue;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      peak_queue = peak_queue_depth_;
      queue.u64le(count_);
      for (std::size_t i = 0; i < count_; ++i) {
        const QueueEntry& e = ring_[ring_slot(i)];
        queue.u64le(e.pkt.ts_usec);
        queue.u64le(e.pkt.data.size());
        queue.bytes(e.pkt.data);
      }
    }

    // 4. Engine scalars.
    net::ByteWriter scalars;
    scalars.u64le(virtual_now_usec_.load(std::memory_order_relaxed));
    scalars.u32le(stage_.load(std::memory_order_relaxed));
    scalars.u64le(offered_.load(std::memory_order_relaxed));
    scalars.u64le(rejected_.load(std::memory_order_relaxed));
    scalars.u64le(peak_queue);
    scalars.u64le(peak_flows);
    scalars.u64le(stream_pos_.load(std::memory_order_relaxed));
    append_section(body, kSecEngine, scalars);

    // 5. Latency buckets (raw; restore recomputes the total).
    net::ByteWriter latency;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      for (std::uint64_t b : stats_.latency.buckets()) latency.u64le(b);
    }
    append_section(body, kSecLatency, latency);

    append_section(body, kSecQueue, queue);
    append_section(body, kSecVerdicts, verdicts);

    std::string err;
    const std::string_view bytes{reinterpret_cast<const char*>(body.data().data()),
                                 body.size()};
    if (!core::atomic_write_file(path, bytes, &err, io)) {
      outcome = fail(SnapshotError::kIo, err);
    }
  }

  std::lock_guard<std::mutex> lock(recovery_mu_);
  if (outcome.ok()) {
    ++recovery_.snapshots_saved;
  } else {
    ++recovery_.save_failures;
    recovery_.last_error = outcome.error;
  }
  return outcome;
}

// --- restore --------------------------------------------------------------

namespace {

/// Fully parsed, validated snapshot — built before any engine state is
/// touched so restore is all-or-nothing.
struct StagedSnapshot {
  std::vector<std::vector<FlowRecord>> shards;
  std::vector<std::uint64_t> counters;
  std::array<std::uint64_t, LatencyHistogram::kBuckets> latency{};
  std::uint64_t virtual_now_usec = 0;
  std::uint32_t stage = 0;
  std::uint64_t offered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t peak_queue_depth = 0;
  std::uint64_t peak_flows = 0;
  std::uint64_t stream_pos = 0;
  std::vector<net::Packet> queue;
  std::vector<Verdict> verdicts;
};

}  // namespace

SnapshotOutcome ServeEngine::restore_snapshot(const std::string& path,
                                              core::Io* io) {
  SUGAR_TRACE_SPAN("serve.snapshot.restore");
  core::Io& fs = io ? *io : core::real_io();

  StagedSnapshot staged;
  SnapshotOutcome outcome;
  // Parse phase — no engine state is touched until the whole file checks
  // out, so any failure below leaves this engine exactly as constructed.
  [&]() {
    std::string data;
    std::string err;
    if (!fs.read_file(path, data, &err)) {
      outcome = fail(SnapshotError::kIo, err);
      return;
    }
    net::ByteReader r{std::span{reinterpret_cast<const std::uint8_t*>(data.data()),
                                data.size()}};

    const std::span<const std::uint8_t> magic = r.view(sizeof(kSnapshotMagic));
    if (!r.ok()) {
      outcome = fail(SnapshotError::kTruncated, "file shorter than header");
      return;
    }
    if (std::memcmp(magic.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
      outcome = fail(SnapshotError::kBadMagic, "not a snapshot file: " + path);
      return;
    }
    const std::uint32_t version = r.u32le();
    if (!r.ok()) {
      outcome = fail(SnapshotError::kTruncated, "file shorter than header");
      return;
    }
    if (version != kSnapshotVersion) {
      outcome = fail(SnapshotError::kBadVersion,
                     "snapshot version " + std::to_string(version) +
                         ", this build speaks " +
                         std::to_string(kSnapshotVersion));
      return;
    }

    std::uint32_t last_id = 0;
    bool seen[kSecCount + 1] = {};
    std::size_t feature_dim = 0;
    while (r.remaining() > 0) {
      if (last_id == kSecCount) {
        // Every section is present and ids ascend strictly, so nothing
        // legal can follow the last one.
        outcome = fail(SnapshotError::kTrailingGarbage,
                       std::to_string(r.remaining()) +
                           " extra bytes after the final section");
        return;
      }
      const std::uint32_t id = r.u32le();
      const std::uint64_t len = r.u64le();
      if (!r.ok()) {
        outcome = fail(SnapshotError::kTruncated, "file ends mid-section-header");
        return;
      }
      if (id < 1 || id > kSecCount || id <= last_id) {
        outcome = fail(SnapshotError::kBadSection,
                       "unexpected section id " + std::to_string(id));
        return;
      }
      if (len > r.remaining() || r.remaining() - len < 4) {
        outcome = fail(SnapshotError::kTruncated,
                       "section " + std::to_string(id) + " claims " +
                           std::to_string(len) + " bytes, " +
                           std::to_string(r.remaining()) + " remain");
        return;
      }
      const std::span<const std::uint8_t> payload = r.view(len);
      const std::uint32_t crc = r.u32le();
      if (core::crc32(payload) != crc) {
        outcome = fail(SnapshotError::kSectionCrc,
                       "section " + std::to_string(id) + " checksum mismatch");
        return;
      }
      seen[id] = true;
      last_id = id;

      // Each record below is read whole, then checked once: a reader that
      // ran short returns zeros and stays !ok() from then on.
      net::ByteReader sr{payload};
      auto bad = [&](const char* what) {
        outcome = fail(SnapshotError::kBadSection,
                       "section " + std::to_string(id) + ": " + what);
      };
      switch (id) {
        case kSecConfig: {
          const std::uint64_t shards = sr.u64le();
          const std::uint64_t max_flows = sr.u64le();
          const std::uint64_t dim = sr.u64le();
          const std::uint64_t classify_at = sr.u64le();
          const std::uint64_t queue_cap = sr.u64le();
          const std::uint64_t batch = sr.u64le();
          const std::uint64_t min_classify = sr.u64le();
          const std::uint64_t idle = sr.u64le();
          const std::uint64_t arity = sr.u64le();
          const bool record = sr.u8() != 0;
          if (!sr.ok()) {
            bad("payload too short");
            return;
          }
          const bool matches =
              shards == table_.shard_count() &&
              max_flows == table_.config().max_flows &&
              dim == feature_dim_ &&
              classify_at == table_.config().classify_at &&
              queue_cap == cfg_.queue_capacity && batch == cfg_.batch_size &&
              min_classify == kMinClassifyPackets &&
              idle == cfg_.idle_timeout_usec &&
              arity == ServeCounters{}.to_values().size() &&
              record == cfg_.record_verdicts;
          if (!matches) {
            outcome = fail(SnapshotError::kConfigMismatch,
                           "snapshot taken under a different ServeConfig "
                           "(e.g. shards " + std::to_string(shards) + " vs " +
                               std::to_string(table_.shard_count()) + ")");
            return;
          }
          feature_dim = dim;
          break;
        }
        case kSecFlows: {
          if (!seen[kSecConfig]) {
            bad("flows before config");
            return;
          }
          const std::uint64_t shards = sr.u64le();
          if (!sr.ok() || shards != table_.shard_count()) {
            bad("shard count mismatch");
            return;
          }
          staged.shards.resize(shards);
          for (std::uint64_t s = 0; s < shards; ++s) {
            const std::uint64_t count = sr.u64le();
            if (!sr.ok() || count > table_.shard_capacity()) {
              bad("per-shard flow count out of range");
              return;
            }
            std::unordered_set<net::FlowKey, net::FlowKeyHash> keys;
            staged.shards[s].reserve(count);
            for (std::uint64_t f = 0; f < count; ++f) {
              FlowRecord rec;
              get_key(sr, rec.key);
              rec.first_ts_usec = sr.u64le();
              rec.last_ts_usec = sr.u64le();
              rec.packets = sr.u32le();
              rec.feature_packets = sr.u32le();
              rec.classified = sr.u8() != 0;
              rec.feature_sum.resize(feature_dim);
              for (float& x : rec.feature_sum) x = std::bit_cast<float>(sr.u32le());
              if (!sr.ok()) {
                bad("flow record truncated");
                return;
              }
              if (table_.shard_of(rec.key) != s || !keys.insert(rec.key).second) {
                bad("flow key in the wrong shard or duplicated");
                return;
              }
              staged.shards[s].push_back(std::move(rec));
            }
          }
          break;
        }
        case kSecCounters: {
          const std::uint64_t count = sr.u64le();
          if (!sr.ok() || count != ServeCounters{}.to_values().size()) {
            outcome = fail(SnapshotError::kConfigMismatch,
                           "counter arity " + std::to_string(count) +
                               " from a different build");
            return;
          }
          staged.counters.resize(count);
          for (std::uint64_t& v : staged.counters) v = sr.u64le();
          if (!sr.ok()) {
            bad("counter values truncated");
            return;
          }
          break;
        }
        case kSecEngine: {
          staged.virtual_now_usec = sr.u64le();
          staged.stage = sr.u32le();
          staged.offered = sr.u64le();
          staged.rejected = sr.u64le();
          staged.peak_queue_depth = sr.u64le();
          staged.peak_flows = sr.u64le();
          staged.stream_pos = sr.u64le();
          if (!sr.ok()) {
            bad("payload too short");
            return;
          }
          if (staged.stage > 3) {
            bad("shed stage out of range");
            return;
          }
          break;
        }
        case kSecLatency: {
          for (std::uint64_t& b : staged.latency) b = sr.u64le();
          if (!sr.ok()) {
            bad("latency buckets truncated");
            return;
          }
          break;
        }
        case kSecQueue: {
          const std::uint64_t count = sr.u64le();
          if (!sr.ok() || count > cfg_.queue_capacity + cfg_.batch_size) {
            bad("queue depth out of range");
            return;
          }
          staged.queue.resize(count);
          for (net::Packet& pkt : staged.queue) {
            pkt.ts_usec = sr.u64le();
            const std::span<const std::uint8_t> bytes = sr.view(sr.u64le());
            if (!sr.ok()) {
              bad("queued packet truncated");
              return;
            }
            pkt.data.assign(bytes.begin(), bytes.end());
          }
          break;
        }
        case kSecVerdicts: {
          const std::uint64_t count = sr.u64le();
          if (!sr.ok() || count > cfg_.max_recorded_verdicts) {
            bad("verdict count out of range");
            return;
          }
          staged.verdicts.resize(count);
          for (Verdict& v : staged.verdicts) {
            get_key(sr, v.key);
            v.label = static_cast<int>(sr.u32le());
            v.packets = sr.u32le();
            v.feature_packets = sr.u32le();
            const std::uint8_t reason = sr.u8();
            v.first_ts_usec = sr.u64le();
            v.last_ts_usec = sr.u64le();
            if (!sr.ok()) {
              bad("verdict record truncated");
              return;
            }
            if (reason > static_cast<std::uint8_t>(VerdictReason::kFlush)) {
              bad("verdict reason out of range");
              return;
            }
            v.reason = static_cast<VerdictReason>(reason);
          }
          break;
        }
      }
      if (sr.remaining() != 0) {
        outcome = fail(SnapshotError::kTrailingGarbage,
                       "section " + std::to_string(id) + " has " +
                           std::to_string(sr.remaining()) + " extra bytes");
        return;
      }
    }
    for (std::uint32_t id = 1; id <= kSecCount; ++id)
      if (!seen[id]) {
        outcome = fail(SnapshotError::kTruncated,
                       "section " + std::to_string(id) + " missing");
        return;
      }
  }();

  if (!outcome.ok()) {
    // Counted cold start: the engine stays in its current (fresh) state.
    std::lock_guard<std::mutex> lock(recovery_mu_);
    ++recovery_.restore_failures;
    ++recovery_.cold_starts;
    recovery_.last_error = outcome.error;
    return outcome;
  }

  // Apply phase — every input was validated above, so nothing here fails.
  {
    std::lock_guard<std::mutex> pump_lock(pump_mu_);
    for (std::size_t s = 0; s < table_.shard_count(); ++s) {
      table_.evict_all(s, ShardedFlowTable::EvictFn{});
      for (const FlowRecord& rec : staged.shards[s]) table_.restore_flow(s, rec);
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      head_ = 0;
      count_ = 0;
      const std::uint64_t ns = now_ns();
      for (const net::Packet& pkt : staged.queue) push_locked(pkt, ns);
      peak_queue_depth_ = staged.peak_queue_depth;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.counters.from_values(staged.counters);
      stats_.latency.restore(staged.latency);
      verdicts_ = std::move(staged.verdicts);
      peak_flows_ = staged.peak_flows;
    }
    offered_.store(staged.offered, std::memory_order_relaxed);
    rejected_.store(staged.rejected, std::memory_order_relaxed);
    virtual_now_usec_.store(staged.virtual_now_usec, std::memory_order_relaxed);
    stage_.store(staged.stage, std::memory_order_relaxed);
    stream_pos_.store(staged.stream_pos, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(recovery_mu_);
    ++recovery_.snapshots_restored;
  }
  return outcome;
}

RecoveryStats ServeEngine::recovery() const {
  std::lock_guard<std::mutex> lock(recovery_mu_);
  return recovery_;
}

}  // namespace sugar::serve
