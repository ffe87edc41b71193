// Crash-tolerant serving: the snapshot format and error taxonomy for
// ServeEngine::save_snapshot / restore_snapshot.
//
// Format (version 1, little-endian throughout):
//
//   magic "SUGS" | u32 version | section*
//   section := u32 id | u64 payload_len | payload bytes | u32 crc32(payload)
//
// Sections (all required, each appearing exactly once): config fingerprint,
// per-shard flow records in LRU tail→head order, monotone counters, engine
// scalars (virtual stream time, shed stage, offer-side atomics, peaks,
// stream position), latency-histogram buckets, queued packets, and the
// un-taken verdict buffer. Every field goes through net::ByteWriter /
// ByteReader (net/bytes.h). Floats are serialized as raw IEEE-754 bits, so
// a restored feature accumulator is bit-identical to the saved one.
//
// The CRC is core::crc32 (IEEE 802.3) per section, so a bit flip pinpoints
// the damaged section instead of invalidating the whole file. Restore
// parses and validates the ENTIRE file into a staging image before touching
// any engine state — a corrupted snapshot is rejected with the right
// SnapshotError and the engine degrades to a counted cold start, never to a
// half-restored table.
//
// Determinism: a snapshot taken between pump() rounds captures everything
// the next round depends on (flows + LRU order, accumulators, stream
// clock, queue contents, shed stage, counters, verdicts). Restoring it
// into a fresh engine with the same config and replaying the stream from
// the recorded position therefore produces bit-identical verdicts and
// counters to the uninterrupted run, at any SUGAR_THREADS. Recovery
// bookkeeping lives in RecoveryStats, NOT ServeCounters, so the
// crashed-and-restored run's counters stay comparable to the baseline's.
#pragma once

#include <cstdint>
#include <string>

#include "core/artifact.h"

namespace sugar::serve {

inline constexpr char kSnapshotMagic[4] = {'S', 'U', 'G', 'S'};
inline constexpr std::uint32_t kSnapshotVersion = 1;

enum class SnapshotError : std::uint8_t {
  kNone = 0,
  kIo,              // file unreadable / unwritable
  kBadMagic,        // not a snapshot file
  kBadVersion,      // format version this build does not speak
  kTruncated,       // file ends mid-structure or lacks a required section
  kBadSection,      // section malformed (unknown id, duplicate, bad payload)
  kSectionCrc,      // payload bytes fail their checksum (bit flip)
  kConfigMismatch,  // snapshot was taken under an incompatible ServeConfig
  kTrailingGarbage, // valid sections followed by extra bytes
};
const char* to_string(SnapshotError e);

struct SnapshotOutcome {
  SnapshotError error = SnapshotError::kNone;
  std::string message;  // human-readable detail (path, section, sizes)

  [[nodiscard]] bool ok() const { return error == SnapshotError::kNone; }
};

/// Recovery-path bookkeeping. Deliberately NOT part of ServeCounters: a
/// restored run must stay bit-identical to an uninterrupted one, so the
/// counters the identity check compares cannot know a crash happened.
struct RecoveryStats {
  std::uint64_t snapshots_saved = 0;
  std::uint64_t save_failures = 0;
  std::uint64_t snapshots_restored = 0;
  std::uint64_t restore_failures = 0;
  std::uint64_t cold_starts = 0;  // failed restores that fell back to empty
  SnapshotError last_error = SnapshotError::kNone;

  [[nodiscard]] core::Json to_json() const;
};

}  // namespace sugar::serve
