// Crash tolerance contract: a snapshot taken between pump() rounds, restored
// into a fresh engine, must make the replayed run bit-identical to an
// uninterrupted one — verdicts and every monotone counter, at any
// SUGAR_THREADS. The corruption corpus (truncations and single-bit flips at
// positions spread across the file) must always be rejected with a
// structured SnapshotError and degrade to a counted cold start; it must
// never crash, misparse silently, or leave a half-restored engine. These
// tests also run under the sanitizer configurations via scripts/check.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "core/chaos.h"
#include "core/threadpool.h"
#include "serve/engine.h"
#include "serve/snapshot.h"
#include "trafficgen/datasets.h"

namespace sugar::serve {
namespace {

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { core::set_global_threads(n); }
  ~ScopedThreads() { core::set_global_threads(0); }
};

const std::size_t kWidths[] = {1, 2, 7};

std::vector<net::Packet> sample_stream() {
  trafficgen::GenOptions opts;
  opts.seed = 2027;
  opts.flows_per_class = 3;
  opts.spurious_fraction = 0.05;
  return trafficgen::generate_iscx_vpn(opts).packets;
}

std::shared_ptr<const FlowClassifier> parity_classifier() {
  FlowFeatureConfig fcfg;
  const std::size_t dim = flow_feature_dim(fcfg);
  return std::make_shared<HeuristicClassifier>(dim, 4, [dim](const float* f) {
    float acc = 0.0f;
    for (std::size_t d = 0; d < dim; ++d) acc += f[d];
    return static_cast<int>(static_cast<std::uint64_t>(acc) % 4);
  });
}

ServeConfig small_config() {
  ServeConfig cfg;
  cfg.table.shards = 4;
  cfg.table.max_flows = 256;
  cfg.queue_capacity = 512;
  cfg.batch_size = 64;
  cfg.record_verdicts = true;
  return cfg;
}

std::string describe(const Verdict& v) {
  std::ostringstream os;
  os << std::string(reinterpret_cast<const char*>(&v.key), sizeof v.key)
     << '|' << v.label << '|' << v.packets << '|' << v.feature_packets << '|'
     << to_string(v.reason) << '|' << v.first_ts_usec << '|' << v.last_ts_usec;
  return os.str();
}

/// Offers 96 packets per round (above batch_size, so the queue carries state
/// across rounds and into snapshots), pumps once, using the engine's own
/// stream_pos() as the replay cursor — exactly what a restored run resumes
/// from.
void drive_rounds(ServeEngine& engine, const std::vector<net::Packet>& stream,
                  std::size_t rounds) {
  for (std::size_t r = 0; r < rounds && engine.stream_pos() < stream.size();
       ++r) {
    std::size_t pos = engine.stream_pos();
    for (std::size_t k = 0; k < 96 && pos < stream.size(); ++k, ++pos)
      engine.offer(stream[pos]);
    engine.set_stream_pos(pos);
    engine.pump();
  }
}

struct RunResult {
  std::vector<std::string> verdicts;
  std::vector<std::uint64_t> counters;
};

RunResult finish(ServeEngine& engine, const std::vector<net::Packet>& stream) {
  drive_rounds(engine, stream, ~std::size_t{0});
  engine.drain();
  engine.flush();
  RunResult out;
  for (const auto& v : engine.take_verdicts()) out.verdicts.push_back(describe(v));
  out.counters = engine.stats().counters.to_values();
  return out;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/sugar_" + name + ".snap";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// fnv1a64 of a snapshot file without its latency section (id 5), whose
/// buckets hold wall-clock latencies. Sections are walked by their
/// little-endian u32 id | u64 length | payload | u32 crc framing.
std::uint64_t digest_without_latency(const std::string& bytes) {
  const auto le = [&](std::size_t at, int n) {
    std::uint64_t v = 0;
    for (int b = n - 1; b >= 0; --b)
      v = v << 8 | static_cast<std::uint8_t>(bytes[at + static_cast<std::size_t>(b)]);
    return v;
  };
  std::string kept = bytes.substr(0, 8);  // magic + version
  for (std::size_t pos = 8; pos + 12 <= bytes.size();) {
    const std::size_t end = pos + 12 + le(pos + 4, 8) + 4;
    if (le(pos, 4) != 5) kept.append(bytes, pos, end - pos);
    pos = end;
  }
  return core::fnv1a64(kept);
}

// A snapshot saved after six rounds (flows mid-fold, a carried-over queue,
// untaken verdicts) has pinned bytes outside its latency section, and a
// restored engine replays to a pinned verdict digest and counters.
TEST(SnapshotDeterminism, MidStreamSnapshotAndReplayPinned) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  for (const std::size_t width : kWidths) {
    ScopedThreads threads(width);
    const std::string path = temp_path("pinned");
    {
      ServeEngine engine(small_config(), clf);
      drive_rounds(engine, stream, 6);
      ASSERT_TRUE(engine.save_snapshot(path).ok());
    }
    EXPECT_EQ(digest_without_latency(read_file(path)), 0x35ab43cfca362f56ull)
        << "width " << width;
    ServeEngine restored(small_config(), clf);
    ASSERT_TRUE(restored.restore_snapshot(path).ok());
    const RunResult got = finish(restored, stream);
    std::string all;
    for (const auto& v : got.verdicts) all += v + '\n';
    EXPECT_EQ(core::fnv1a64(all), 0xb3bfcbb2e830fe43ull) << "width " << width;
    EXPECT_EQ(got.counters,
              (std::vector<std::uint64_t>{3622, 742, 2880, 0, 24, 1844, 59, 0, 55,
                                          0, 0, 4, 18, 12, 29, 0, 1, 1, 45, 0,
                                          0, 0, 0, 0, 0}))
        << "width " << width;
  }
}

TEST(SnapshotDeterminism, KillRestoreReplayIsBitIdenticalAtAllWidths) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  for (const std::size_t width : kWidths) {
    ScopedThreads threads(width);
    // Uninterrupted baseline at this width.
    ServeEngine baseline(small_config(), clf);
    const RunResult want = finish(baseline, stream);
    ASSERT_FALSE(want.verdicts.empty());

    for (const std::size_t kill_round : {std::size_t{2}, std::size_t{6}}) {
      const std::string path = temp_path("kill");
      {
        ServeEngine engine(small_config(), clf);
        drive_rounds(engine, stream, kill_round);
        ASSERT_TRUE(engine.save_snapshot(path).ok());
        // Engine destroyed: the crash. Verdicts were never taken — the
        // snapshot must carry them.
      }
      ServeEngine restored(small_config(), clf);
      ASSERT_TRUE(restored.restore_snapshot(path).ok());
      const RunResult got = finish(restored, stream);
      EXPECT_EQ(want.counters, got.counters)
          << "width " << width << " kill " << kill_round;
      ASSERT_EQ(want.verdicts.size(), got.verdicts.size())
          << "width " << width << " kill " << kill_round;
      for (std::size_t i = 0; i < want.verdicts.size(); ++i)
        ASSERT_EQ(want.verdicts[i], got.verdicts[i])
            << "verdict " << i << " width " << width << " kill " << kill_round;
      EXPECT_EQ(restored.recovery().snapshots_restored, 1u);
      core::real_io().remove_file(path);
    }
  }
}

TEST(SnapshotRoundTrip, RestoredEngineMatchesSavedState) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("roundtrip");

  ServeEngine engine(small_config(), clf);
  drive_rounds(engine, stream, 4);
  ASSERT_TRUE(engine.save_snapshot(path).ok());
  EXPECT_EQ(engine.recovery().snapshots_saved, 1u);

  ServeEngine restored(small_config(), clf);
  ASSERT_TRUE(restored.restore_snapshot(path).ok());

  const ServeStats a = engine.stats();
  const ServeStats b = restored.stats();
  EXPECT_EQ(a.counters.to_values(), b.counters.to_values());
  EXPECT_EQ(a.gauges.current_flows, b.gauges.current_flows);
  EXPECT_EQ(a.gauges.peak_flows, b.gauges.peak_flows);
  EXPECT_EQ(a.gauges.queue_depth, b.gauges.queue_depth);
  EXPECT_EQ(a.gauges.shed_stage, b.gauges.shed_stage);
  EXPECT_EQ(a.gauges.virtual_now_usec, b.gauges.virtual_now_usec);
  EXPECT_EQ(a.latency.buckets(), b.latency.buckets());
  EXPECT_EQ(engine.stream_pos(), restored.stream_pos());

  const auto va = engine.take_verdicts();
  const auto vb = restored.take_verdicts();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i)
    EXPECT_EQ(describe(va[i]), describe(vb[i]));
  core::real_io().remove_file(path);
}

TEST(SnapshotRoundTrip, ConfigMismatchRejectedAndEngineUntouched) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("mismatch");

  ServeEngine engine(small_config(), clf);
  drive_rounds(engine, stream, 3);
  ASSERT_TRUE(engine.save_snapshot(path).ok());

  ServeConfig other = small_config();
  other.table.shards = 8;  // different shard map: flows would land wrong
  ServeEngine victim(other, clf);
  const SnapshotOutcome out = victim.restore_snapshot(path);
  EXPECT_EQ(out.error, SnapshotError::kConfigMismatch);
  EXPECT_EQ(victim.recovery().restore_failures, 1u);
  EXPECT_EQ(victim.recovery().cold_starts, 1u);
  EXPECT_EQ(victim.recovery().last_error, SnapshotError::kConfigMismatch);
  // The failed restore must leave the engine a clean cold start.
  const ServeStats stats = victim.stats();
  EXPECT_EQ(stats.counters.packets_offered, 0u);
  EXPECT_EQ(stats.gauges.current_flows, 0u);
  const RunResult still_works = finish(victim, stream);
  EXPECT_FALSE(still_works.verdicts.empty());
  core::real_io().remove_file(path);
}

TEST(SnapshotCorruption, MissingFileIsIoError) {
  ServeEngine engine(small_config(), parity_classifier());
  const SnapshotOutcome out =
      engine.restore_snapshot(temp_path("does_not_exist"));
  EXPECT_EQ(out.error, SnapshotError::kIo);
  EXPECT_EQ(engine.recovery().cold_starts, 1u);
}

TEST(SnapshotCorruption, BadMagicAndVersionDetected) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("header");
  ServeEngine engine(small_config(), clf);
  drive_rounds(engine, stream, 2);
  ASSERT_TRUE(engine.save_snapshot(path).ok());
  const std::string clean = read_file(path);
  ASSERT_GE(clean.size(), 8u);

  std::string bad = clean;
  bad[0] = 'X';
  write_file(path, bad);
  ServeEngine v1(small_config(), clf);
  EXPECT_EQ(v1.restore_snapshot(path).error, SnapshotError::kBadMagic);

  bad = clean;
  bad[4] = static_cast<char>(0x7F);  // version little-endian low byte
  write_file(path, bad);
  ServeEngine v2(small_config(), clf);
  EXPECT_EQ(v2.restore_snapshot(path).error, SnapshotError::kBadVersion);
  core::real_io().remove_file(path);
}

TEST(SnapshotCorruption, EveryTruncationRejectedStructured) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("truncate");
  {
    ServeEngine engine(small_config(), clf);
    drive_rounds(engine, stream, 3);
    ASSERT_TRUE(engine.save_snapshot(path).ok());
  }
  const std::string clean = read_file(path);
  ASSERT_GT(clean.size(), 64u);

  std::vector<std::size_t> cuts = {0, 1, 3, 4, 7, 8, 11, 15,
                                   clean.size() / 4, clean.size() / 2,
                                   clean.size() - 5, clean.size() - 1};
  std::vector<std::string> kinds;
  for (std::size_t cut : cuts) {
    write_file(path, clean.substr(0, cut));
    ServeEngine victim(small_config(), clf);
    const SnapshotOutcome out = victim.restore_snapshot(path);
    EXPECT_NE(out.error, SnapshotError::kNone) << "cut at " << cut;
    kinds.push_back(to_string(out.error));
    EXPECT_EQ(victim.recovery().cold_starts, 1u) << "cut at " << cut;
    // Still a functional engine after the rejected restore.
    victim.offer(stream[0]);
    victim.pump();
  }
  // Each cut keeps the error it had when the codec was first pinned.
  EXPECT_EQ(kinds, std::vector<std::string>(cuts.size(), "truncated"));

  // Trailing garbage after a fully valid snapshot is its own error.
  write_file(path, clean + "extra");
  ServeEngine victim(small_config(), clf);
  EXPECT_EQ(victim.restore_snapshot(path).error,
            SnapshotError::kTrailingGarbage);
  core::real_io().remove_file(path);
}

TEST(SnapshotCorruption, EveryBitFlipRejected) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("bitflip");
  {
    ServeEngine engine(small_config(), clf);
    drive_rounds(engine, stream, 3);
    ASSERT_TRUE(engine.save_snapshot(path).ok());
  }
  const std::string clean = read_file(path);
  ASSERT_GT(clean.size(), 64u);

  // Deterministic corpus: positions strided across the whole file, three
  // bit positions each. Past the magic every flip it makes reads as a
  // section CRC mismatch, so the version and the section ids and lengths
  // get targeted flips in FramingDamageRejectedByKind.
  const std::size_t stride = std::max<std::size_t>(1, clean.size() / 41);
  std::vector<std::string> kinds;
  for (std::size_t pos = 0; pos < clean.size(); pos += stride) {
    for (int bit : {0, 3, 7}) {
      std::string bad = clean;
      bad[pos] = static_cast<char>(bad[pos] ^ (1 << bit));
      write_file(path, bad);
      ServeEngine victim(small_config(), clf);
      const SnapshotOutcome out = victim.restore_snapshot(path);
      EXPECT_NE(out.error, SnapshotError::kNone)
          << "flip at byte " << pos << " bit " << bit;
      kinds.push_back(to_string(out.error));
      // A rejected restore is a counted cold start with a usable engine.
      EXPECT_EQ(victim.recovery().cold_starts, 1u);
      victim.offer(stream[0]);
      victim.pump();
    }
  }
  // Each flip keeps the error it had when the codec was first pinned: the
  // three flips of byte 0 break the magic, every later one a section CRC.
  std::vector<std::string> want(126, "section-crc");
  std::fill_n(want.begin(), 3, "bad-magic");
  EXPECT_EQ(kinds, want);
  core::real_io().remove_file(path);
}

// Targeted damage to the fields that frame the sections: the version, a
// section id and a section length. Each keeps the error kind it had when
// the codec was first pinned.
TEST(SnapshotCorruption, FramingDamageRejectedByKind) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("framing");
  {
    ServeEngine engine(small_config(), clf);
    drive_rounds(engine, stream, 3);
    ASSERT_TRUE(engine.save_snapshot(path).ok());
  }
  const std::string clean = read_file(path);
  // Magic [0,4), version u32 [4,8), then per section: id u32, payload
  // length u64, payload, CRC u32. Section 1 starts at 8, section 2 after it.
  std::uint64_t first_len = 0;
  for (int i = 7; i >= 0; --i)
    first_len = first_len << 8 | static_cast<std::uint8_t>(clean[12 + i]);
  const std::size_t second = 8 + 12 + first_len + 4;
  ASSERT_LT(second + 12, clean.size());

  struct Damage {
    const char* what;
    std::size_t pos;
    std::uint8_t mask;
    const char* kind;
  };
  const Damage corpus[] = {
      {"version low byte", 4, 0x01, "bad-version"},
      {"version byte 1", 5, 0x10, "bad-version"},
      {"version high byte", 7, 0x80, "bad-version"},
      {"first section id 1 -> 0", 8, 0x01, "bad-section"},
      {"first section id past the last", 11, 0x80, "bad-section"},
      {"second section id 2 -> 1 (repeat)", second, 0x03, "bad-section"},
      {"first section length off by one", 12, 0x01, "section-crc"},
      {"first section length past the end", 19, 0x80, "truncated"},
      {"second section length past the end", second + 8, 0x40, "truncated"},
  };
  for (const Damage& d : corpus) {
    std::string bad = clean;
    bad[d.pos] = static_cast<char>(bad[d.pos] ^ d.mask);
    write_file(path, bad);
    ServeEngine victim(small_config(), clf);
    EXPECT_STREQ(to_string(victim.restore_snapshot(path).error), d.kind) << d.what;
    EXPECT_EQ(victim.recovery().cold_starts, 1u) << d.what;
  }
  core::real_io().remove_file(path);
}

TEST(SnapshotIo, InjectedWriteFaultsAreCountedSaveFailures) {
  const auto stream = sample_stream();
  const auto clf = parity_classifier();
  const std::string path = temp_path("io_fault");

  for (core::ChaosSite site : {core::ChaosSite::kIoWriteFail,
                               core::ChaosSite::kIoShortWrite,
                               core::ChaosSite::kIoRenameFail}) {
    core::ChaosConfig ccfg;
    ccfg.seed = 99;
    ccfg.with(site, 1.0);
    core::ChaosInjector chaos(ccfg);
    core::ChaosIo io(chaos);

    ServeEngine engine(small_config(), clf);
    drive_rounds(engine, stream, 2);
    const SnapshotOutcome out = engine.save_snapshot(path, &io);
    EXPECT_EQ(out.error, SnapshotError::kIo) << to_string(site);
    EXPECT_EQ(engine.recovery().save_failures, 1u) << to_string(site);
    EXPECT_EQ(engine.recovery().snapshots_saved, 0u) << to_string(site);

    // The failed (possibly short) write must not have produced a file a
    // later restore would accept.
    ServeEngine victim(small_config(), clf);
    EXPECT_NE(victim.restore_snapshot(path).error, SnapshotError::kNone)
        << to_string(site);
    core::real_io().remove_file(path);
  }
}

}  // namespace
}  // namespace sugar::serve
