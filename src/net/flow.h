// Flow identification: 5-tuple keys with bi-flow canonicalization, and a
// FlowTable that groups a packet stream into bidirectional flows. The
// per-flow train/test split — the paper's core methodological fix — operates
// on the flow ids produced here.
#pragma once

#include <compare>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "net/parser.h"

namespace sugar::net {

/// Canonical bi-flow key: endpoints are ordered so both directions of a
/// connection map to the same key. `a` is the lexicographically smaller
/// (address, port) endpoint.
struct FlowKey {
  IpAddress a_ip;
  IpAddress b_ip;
  std::uint16_t a_port = 0;
  std::uint16_t b_port = 0;
  std::uint8_t proto = 0;

  auto operator<=>(const FlowKey&) const = default;

  [[nodiscard]] std::string to_string() const;

  /// Builds the canonical key from a parsed packet; also reports whether the
  /// packet travels in the a->b direction. Returns false for non-IP or
  /// port-less packets.
  static bool from_parsed(const ParsedPacket& p, FlowKey& key, bool& forward);
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const;
};

/// One packet's membership in a flow.
struct FlowPacketRef {
  std::size_t packet_index = 0;  // index into the originating packet vector
  bool forward = false;          // a->b direction?
};

struct Flow {
  FlowKey key;
  std::vector<FlowPacketRef> packets;
  std::uint64_t first_ts_usec = 0;
  std::uint64_t last_ts_usec = 0;

  [[nodiscard]] std::size_t size() const { return packets.size(); }
};

/// Groups packets into bi-flows, preserving arrival order within each flow.
/// Packets that carry no 5-tuple (ARP, ICMP, LLC) are reported separately.
class FlowTable {
 public:
  /// Adds one packet (by index), given its parse and capture timestamp.
  /// Returns the flow id it joined, or -1 when the packet has no 5-tuple.
  int add(std::size_t packet_index, const ParsedPacket& parsed, std::uint64_t ts_usec);

  [[nodiscard]] const std::vector<Flow>& flows() const { return flows_; }
  [[nodiscard]] const std::vector<std::size_t>& keyless_packets() const {
    return keyless_;
  }
  /// flow id for each added packet index (parallel to insertion order), -1
  /// for keyless packets.
  [[nodiscard]] const std::vector<int>& flow_of_packet() const { return flow_of_; }

 private:
  std::unordered_map<FlowKey, std::size_t, FlowKeyHash> index_;
  std::vector<Flow> flows_;
  std::vector<std::size_t> keyless_;
  std::vector<int> flow_of_;
};

/// Convenience: parses and assembles a whole packet vector into flows; a
/// frame that does not parse is keyless.
FlowTable assemble_flows(const std::vector<Packet>& packets);

}  // namespace sugar::net
