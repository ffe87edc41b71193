// Deterministic fault injection for ingestion hardening. A seeded
// FaultInjector mutates well-formed frames (truncation at every layer
// boundary, bit flips, lying IPv4/TCP length fields, hostile options) and
// serialized pcap byte streams (corrupt magics, lying record headers,
// mid-record truncation, garbage tails). The mutations model the corpus of
// damage observed in real capture archives, so the parser and PcapReader can
// be fuzzed and regression-tested against hostile bytes without shipping
// binary fixtures.
#pragma once

#include <cstdint>
#include <random>
#include <string>

#include "net/packet.h"

namespace sugar::net {

/// Frame-level faults. Truncations cut inside the named layer; the "lying"
/// faults leave the frame length intact but falsify the header field that
/// describes it, which is the classic parser-confusion attack surface.
enum class FrameFault : std::uint8_t {
  TruncateEthernet,      // cut inside the 14-byte Ethernet header
  TruncateL3,            // cut inside the IP/ARP header
  TruncateL4,            // cut inside the TCP/UDP/ICMP header
  TruncatePayload,       // cut inside the application payload
  TruncateRandom,        // cut at a uniformly random byte offset
  BitFlip,               // flip 1-8 random bits anywhere in the frame
  LyingIpv4TotalLength,  // random total_length (may undercut the header)
  LyingIpv4Ihl,          // random IHL nibble 0..15
  LyingTcpDataOffset,    // random data-offset nibble 0..15
  ZeroTcpOptionLength,   // option length byte forced to 0 (infinite loop bait)
  OversizedTcpOption,    // option length byte larger than the options region
  GarbageEtherType,      // random EtherType
  kCount,
};

/// Pcap-stream faults applied to a serialized capture file blob.
enum class StreamFault : std::uint8_t {
  CorruptMagic,          // random global-header magic
  TruncateGlobalHeader,  // cut inside the 24-byte global header
  HostileSnaplen,        // global snaplen forced to 0xFFFFFFFF
  CorruptRecordLength,   // one record's incl_len replaced with a huge value
  ZeroLengthRecord,      // a zero-length record inserted mid-stream
  MidRecordTruncate,     // stream cut inside one record's data
  GarbageTail,           // random garbage appended after the valid records
  BitFlipAnywhere,       // flip 1-8 random bits anywhere in the blob
  kCount,
};

/// Streaming delivery faults applied to a whole packet *sequence* — the
/// damage a live capture path (SPAN port, kernel ring, overloaded tap)
/// inflicts on delivery order and completeness rather than on individual
/// frames. The serve engine's fault matrix replays sequences mutated here.
enum class SequenceFault : std::uint8_t {
  ReorderWindow,     // shuffle delivery order inside fixed-size windows
  DuplicateDelivery, // re-deliver a fraction of packets a few slots later
  TruncateMidFlow,   // cut a fraction of flows short mid-stream
  kCount,
};

/// Knobs for mutate_sequence(). Defaults model a moderately hostile tap.
/// A duplicate lands one to eight slots after its original, and a
/// truncated flow keeps at least its first packet.
struct SequenceFaultOptions {
  std::size_t reorder_window = 8;       // shuffle span in packets
  double duplicate_fraction = 0.05;     // probability a packet is re-delivered
  double truncate_flow_fraction = 0.3;  // fraction of flows cut short
};

std::string to_string(FrameFault f);
std::string to_string(StreamFault f);
std::string to_string(SequenceFault f);

/// Seeded mutation engine. All choices (fault sites, random values) come
/// from the internal mt19937_64, so a (seed, input) pair always produces the
/// same mutant — failures found by the fuzz harness are replayable.
class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) : rng_(seed) {}

  /// Applies one specific fault to a copy of the frame. Faults that need a
  /// layer the frame lacks (e.g. ZeroTcpOptionLength on UDP) degrade to
  /// BitFlip so every call mutates something.
  Packet mutate_frame(const Packet& src, FrameFault fault);

  /// Applies a uniformly chosen frame fault.
  Packet mutate_frame(const Packet& src);

  /// Applies one specific fault to a copy of a serialized pcap blob.
  std::string mutate_stream(const std::string& wire, StreamFault fault);

  /// Applies a uniformly chosen stream fault.
  std::string mutate_stream(const std::string& wire);

  /// Applies one delivery fault to a copy of a packet sequence. Timestamps
  /// are left untouched, so a reordered sequence is genuinely non-monotone
  /// in time — exactly what an online flow table must absorb. Mid-flow
  /// truncation groups packets by canonical bi-flow key; keyless packets
  /// are never dropped.
  std::vector<Packet> mutate_sequence(const std::vector<Packet>& pkts,
                                      SequenceFault fault,
                                      const SequenceFaultOptions& opt = {});

  /// Applies a uniformly chosen delivery fault.
  std::vector<Packet> mutate_sequence(const std::vector<Packet>& pkts,
                                      const SequenceFaultOptions& opt = {});

  std::mt19937_64& engine() { return rng_; }

 private:
  std::size_t index_below(std::size_t n);  // uniform in [0, n)
  void flip_bits(std::uint8_t* data, std::size_t size);

  std::mt19937_64 rng_;
};

}  // namespace sugar::net
