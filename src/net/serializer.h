// Frame builders: header structs -> wire bytes, with lengths and checksums
// computed. Used by the synthetic trace generators and by tests that need
// byte-exact round trips against the parser.
#pragma once

#include <span>

#include "net/packet.h"

namespace sugar::net {

/// Specification for one frame. Fill the layers you want; build_frame()
/// computes total_length / payload_length and every checksum, so the
/// header_checksum / checksum fields of the spec are never written.
struct FrameSpec {
  EthernetHeader eth;
  std::optional<ArpHeader> arp;
  std::optional<Ipv4Header> ipv4;
  std::optional<Ipv6Header> ipv6;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::optional<IcmpHeader> icmp;
  std::vector<std::uint8_t> payload;
};

/// Serializes the spec into raw frame bytes. EtherType and IP protocol
/// fields are inferred from which layers are present (explicit values in the
/// spec win when nonzero).
std::vector<std::uint8_t> build_frame(const FrameSpec& spec);

/// Convenience: build_frame + timestamp into a Packet.
Packet build_packet(const FrameSpec& spec, std::uint64_t ts_usec);

/// Serializes TCP options (with NOP padding to a 4-byte boundary); exposed
/// for tests.
std::vector<std::uint8_t> encode_tcp_options(const TcpOptions& opts);

}  // namespace sugar::net
