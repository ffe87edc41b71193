// Snapshot serialization for ServeEngine (format documented in snapshot.h).
// Defined here rather than engine.cpp so the whole codec — writer, reader,
// staging image, validation — lives in one translation unit.
#include "serve/snapshot.h"

#include <bit>
#include <chrono>
#include <cstring>
#include <unordered_set>

#include "core/io.h"
#include "core/trace.h"
#include "core/crc32.h"
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

// --- little-endian writer -------------------------------------------------

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
void put_u16(std::string& out, std::uint16_t v) {
  for (int i = 0; i < 2; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) put_u8(out, static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_f32(std::string& out, float v) {
  put_u32(out, std::bit_cast<std::uint32_t>(v));
}
void put_bytes(std::string& out, const std::uint8_t* p, std::size_t n) {
  out.append(reinterpret_cast<const char*>(p), n);
}

void put_key(std::string& out, const net::FlowKey& k) {
  put_u8(out, k.a_ip.is_v6 ? 1 : 0);
  put_bytes(out, k.a_ip.bytes.data(), k.a_ip.bytes.size());
  put_u8(out, k.b_ip.is_v6 ? 1 : 0);
  put_bytes(out, k.b_ip.bytes.data(), k.b_ip.bytes.size());
  put_u16(out, k.a_port);
  put_u16(out, k.b_port);
  put_u8(out, k.proto);
}

// --- bounds-checked reader ------------------------------------------------

struct Reader {
  const std::uint8_t* p = nullptr;
  std::size_t n = 0;
  std::size_t pos = 0;

  [[nodiscard]] std::size_t remaining() const { return n - pos; }

  bool get_u8(std::uint8_t& v) {
    if (remaining() < 1) return false;
    v = p[pos++];
    return true;
  }
  bool get_u16(std::uint16_t& v) {
    if (remaining() < 2) return false;
    v = 0;
    for (int i = 0; i < 2; ++i) v |= static_cast<std::uint16_t>(p[pos++]) << (8 * i);
    return true;
  }
  bool get_u32(std::uint32_t& v) {
    if (remaining() < 4) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[pos++]) << (8 * i);
    return true;
  }
  bool get_u64(std::uint64_t& v) {
    if (remaining() < 8) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[pos++]) << (8 * i);
    return true;
  }
  bool get_f32(float& v) {
    std::uint32_t bits = 0;
    if (!get_u32(bits)) return false;
    v = std::bit_cast<float>(bits);
    return true;
  }
  bool get_bytes(std::uint8_t* out, std::size_t count) {
    if (remaining() < count) return false;
    std::memcpy(out, p + pos, count);
    pos += count;
    return true;
  }
  bool get_key(net::FlowKey& k) {
    std::uint8_t v6 = 0;
    if (!get_u8(v6)) return false;
    k.a_ip.is_v6 = v6 != 0;
    if (!get_bytes(k.a_ip.bytes.data(), k.a_ip.bytes.size())) return false;
    if (!get_u8(v6)) return false;
    k.b_ip.is_v6 = v6 != 0;
    if (!get_bytes(k.b_ip.bytes.data(), k.b_ip.bytes.size())) return false;
    return get_u16(k.a_port) && get_u16(k.b_port) && get_u8(k.proto);
  }
};

void append_section(std::string& out, std::uint32_t id,
                    const std::string& payload) {
  put_u32(out, id);
  put_u64(out, payload.size());
  out.append(payload);
  put_u32(out, core::crc32({reinterpret_cast<const std::uint8_t*>(payload.data()),
                           payload.size()}));
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

    std::string body;
    body.append(kSnapshotMagic, sizeof(kSnapshotMagic));
    put_u32(body, kSnapshotVersion);

    // 1. Config fingerprint.
    std::string sec;
    put_u64(sec, table_.shard_count());
    put_u64(sec, table_.config().max_flows);
    put_u64(sec, feature_dim_);
    put_u64(sec, table_.config().classify_at);
    put_u64(sec, cfg_.queue_capacity);
    put_u64(sec, cfg_.batch_size);
    put_u64(sec, kMinClassifyPackets);
    put_u64(sec, cfg_.idle_timeout_usec);
    put_u64(sec, ServeCounters{}.to_values().size());
    put_u8(sec, cfg_.record_verdicts ? 1 : 0);
    append_section(body, kSecConfig, sec);

    // 2. Flows, per shard in LRU tail→head order (restore_flow inserts at
    // the head, so replaying in this order rebuilds the identical chain).
    sec.clear();
    put_u64(sec, table_.shard_count());
    for (std::size_t s = 0; s < table_.shard_count(); ++s) {
      std::string flows;
      std::uint64_t count = 0;
      table_.for_each_lru(s, [&](const FlowRecord& rec) {
        ++count;
        put_key(flows, rec.key);
        put_u64(flows, rec.first_ts_usec);
        put_u64(flows, rec.last_ts_usec);
        put_u32(flows, rec.packets);
        put_u32(flows, rec.feature_packets);
        put_u8(flows, rec.classified ? 1 : 0);
        for (float f : rec.feature_sum) put_f32(flows, f);
      });
      put_u64(sec, count);
      sec.append(flows);
    }
    append_section(body, kSecFlows, sec);

    std::uint64_t peak_queue = 0;
    std::uint64_t peak_flows = 0;

    // 3. Counters; 7. verdicts staged now (both under stats_mu_).
    sec.clear();
    std::string verdict_sec;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      const auto values = stats_.counters.to_values();
      put_u64(sec, values.size());
      for (std::uint64_t v : values) put_u64(sec, v);
      peak_flows = peak_flows_;
      put_u64(verdict_sec, verdicts_.size());
      for (const Verdict& v : verdicts_) {
        put_key(verdict_sec, v.key);
        put_u32(verdict_sec, static_cast<std::uint32_t>(v.label));
        put_u32(verdict_sec, v.packets);
        put_u32(verdict_sec, v.feature_packets);
        put_u8(verdict_sec, static_cast<std::uint8_t>(v.reason));
        put_u64(verdict_sec, v.first_ts_usec);
        put_u64(verdict_sec, v.last_ts_usec);
      }
    }
    append_section(body, kSecCounters, sec);

    // 6. Queue staged under queue_mu_ (written after engine + latency).
    std::string queue_sec;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      peak_queue = peak_queue_depth_;
      put_u64(queue_sec, count_);
      for (std::size_t i = 0; i < count_; ++i) {
        const QueueEntry& e = ring_[ring_slot(i)];
        put_u64(queue_sec, e.pkt.ts_usec);
        put_u64(queue_sec, e.pkt.data.size());
        put_bytes(queue_sec, e.pkt.data.data(), e.pkt.data.size());
      }
    }

    // 4. Engine scalars.
    sec.clear();
    put_u64(sec, virtual_now_usec_.load(std::memory_order_relaxed));
    put_u32(sec, stage_.load(std::memory_order_relaxed));
    put_u64(sec, offered_.load(std::memory_order_relaxed));
    put_u64(sec, rejected_.load(std::memory_order_relaxed));
    put_u64(sec, peak_queue);
    put_u64(sec, peak_flows);
    put_u64(sec, stream_pos_.load(std::memory_order_relaxed));
    append_section(body, kSecEngine, sec);

    // 5. Latency buckets (raw; restore recomputes the total).
    sec.clear();
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      for (std::uint64_t b : stats_.latency.buckets()) put_u64(sec, b);
    }
    append_section(body, kSecLatency, sec);

    append_section(body, kSecQueue, queue_sec);
    append_section(body, kSecVerdicts, verdict_sec);

    std::string err;
    if (!core::atomic_write_file(path, body, &err, io)) {
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
    Reader r{reinterpret_cast<const std::uint8_t*>(data.data()), data.size(), 0};

    char magic[4] = {};
    if (!r.get_bytes(reinterpret_cast<std::uint8_t*>(magic), 4)) {
      outcome = fail(SnapshotError::kTruncated, "file shorter than header");
      return;
    }
    if (std::memcmp(magic, kSnapshotMagic, 4) != 0) {
      outcome = fail(SnapshotError::kBadMagic, "not a snapshot file: " + path);
      return;
    }
    std::uint32_t version = 0;
    if (!r.get_u32(version)) {
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
      std::uint32_t id = 0;
      std::uint64_t len = 0;
      if (!r.get_u32(id) || !r.get_u64(len)) {
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
      const std::uint8_t* payload = r.p + r.pos;
      r.pos += len;
      std::uint32_t crc = 0;
      r.get_u32(crc);
      if (core::crc32({payload, len}) != crc) {
        outcome = fail(SnapshotError::kSectionCrc,
                       "section " + std::to_string(id) + " checksum mismatch");
        return;
      }
      seen[id] = true;
      last_id = id;

      Reader sr{payload, static_cast<std::size_t>(len), 0};
      auto bad = [&](const char* what) {
        outcome = fail(SnapshotError::kBadSection,
                       "section " + std::to_string(id) + ": " + what);
      };
      switch (id) {
        case kSecConfig: {
          std::uint64_t shards = 0, max_flows = 0, dim = 0, classify_at = 0;
          std::uint64_t queue_cap = 0, batch = 0, min_classify = 0, idle = 0;
          std::uint64_t arity = 0;
          std::uint8_t record = 0;
          if (!sr.get_u64(shards) || !sr.get_u64(max_flows) ||
              !sr.get_u64(dim) || !sr.get_u64(classify_at) ||
              !sr.get_u64(queue_cap) || !sr.get_u64(batch) ||
              !sr.get_u64(min_classify) || !sr.get_u64(idle) ||
              !sr.get_u64(arity) || !sr.get_u8(record)) {
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
              (record != 0) == cfg_.record_verdicts;
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
          std::uint64_t shards = 0;
          if (!sr.get_u64(shards) || shards != table_.shard_count()) {
            bad("shard count mismatch");
            return;
          }
          staged.shards.resize(shards);
          for (std::uint64_t s = 0; s < shards; ++s) {
            std::uint64_t count = 0;
            if (!sr.get_u64(count) || count > table_.shard_capacity()) {
              bad("per-shard flow count out of range");
              return;
            }
            std::unordered_set<net::FlowKey, net::FlowKeyHash> keys;
            staged.shards[s].reserve(count);
            for (std::uint64_t f = 0; f < count; ++f) {
              FlowRecord rec;
              std::uint8_t classified = 0;
              rec.feature_sum.resize(feature_dim);
              if (!sr.get_key(rec.key) || !sr.get_u64(rec.first_ts_usec) ||
                  !sr.get_u64(rec.last_ts_usec) || !sr.get_u32(rec.packets) ||
                  !sr.get_u32(rec.feature_packets) ||
                  !sr.get_u8(classified)) {
                bad("flow record truncated");
                return;
              }
              for (std::size_t d = 0; d < feature_dim; ++d)
                if (!sr.get_f32(rec.feature_sum[d])) {
                  bad("flow record truncated");
                  return;
                }
              rec.classified = classified != 0;
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
          std::uint64_t count = 0;
          if (!sr.get_u64(count) ||
              count != ServeCounters{}.to_values().size()) {
            outcome = fail(SnapshotError::kConfigMismatch,
                           "counter arity " + std::to_string(count) +
                               " from a different build");
            return;
          }
          staged.counters.resize(count);
          for (std::uint64_t i = 0; i < count; ++i)
            if (!sr.get_u64(staged.counters[i])) {
              bad("counter values truncated");
              return;
            }
          break;
        }
        case kSecEngine: {
          if (!sr.get_u64(staged.virtual_now_usec) ||
              !sr.get_u32(staged.stage) || !sr.get_u64(staged.offered) ||
              !sr.get_u64(staged.rejected) ||
              !sr.get_u64(staged.peak_queue_depth) ||
              !sr.get_u64(staged.peak_flows) ||
              !sr.get_u64(staged.stream_pos)) {
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
          for (std::uint64_t& b : staged.latency)
            if (!sr.get_u64(b)) {
              bad("latency buckets truncated");
              return;
            }
          break;
        }
        case kSecQueue: {
          std::uint64_t count = 0;
          if (!sr.get_u64(count) || count > cfg_.queue_capacity + cfg_.batch_size) {
            bad("queue depth out of range");
            return;
          }
          staged.queue.resize(count);
          for (std::uint64_t i = 0; i < count; ++i) {
            std::uint64_t bytes = 0;
            if (!sr.get_u64(staged.queue[i].ts_usec) || !sr.get_u64(bytes) ||
                bytes > sr.remaining()) {
              bad("queued packet truncated");
              return;
            }
            staged.queue[i].data.resize(bytes);
            sr.get_bytes(staged.queue[i].data.data(), bytes);
          }
          break;
        }
        case kSecVerdicts: {
          std::uint64_t count = 0;
          if (!sr.get_u64(count) || count > cfg_.max_recorded_verdicts) {
            bad("verdict count out of range");
            return;
          }
          staged.verdicts.resize(count);
          for (std::uint64_t i = 0; i < count; ++i) {
            Verdict& v = staged.verdicts[i];
            std::uint32_t label = 0;
            std::uint8_t reason = 0;
            if (!sr.get_key(v.key) || !sr.get_u32(label) ||
                !sr.get_u32(v.packets) || !sr.get_u32(v.feature_packets) ||
                !sr.get_u8(reason) || !sr.get_u64(v.first_ts_usec) ||
                !sr.get_u64(v.last_ts_usec)) {
              bad("verdict record truncated");
              return;
            }
            if (reason > static_cast<std::uint8_t>(VerdictReason::kFlush)) {
              bad("verdict reason out of range");
              return;
            }
            v.label = static_cast<int>(label);
            v.reason = static_cast<VerdictReason>(reason);
          }
          break;
        }
        default:
          bad("unhandled section");
          return;
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
