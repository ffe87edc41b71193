#include "net/serializer.h"

#include "net/bytes.h"
#include "net/checksum.h"

namespace sugar::net {

std::vector<std::uint8_t> encode_tcp_options(const TcpOptions& opts) {
  ByteWriter w;
  if (opts.mss) {
    w.u8(2);
    w.u8(4);
    w.u16be(*opts.mss);
  }
  if (opts.window_scale) {
    w.u8(3);
    w.u8(3);
    w.u8(*opts.window_scale);
  }
  if (opts.sack_permitted) {
    w.u8(4);
    w.u8(2);
  }
  if (opts.timestamp) {
    w.u8(8);
    w.u8(10);
    w.u32be(opts.timestamp->first);
    w.u32be(opts.timestamp->second);
  }
  for (const auto& [kind, raw] : opts.unknown) {
    w.u8(kind);
    w.u8(static_cast<std::uint8_t>(raw.size() + 2));
    w.bytes(raw);
  }
  auto out = w.take();
  while (out.size() % 4 != 0) out.push_back(1);  // NOP padding
  return out;
}

namespace {

void write_tcp(ByteWriter& w, const TcpHeader& tcp,
               const std::vector<std::uint8_t>& options_bytes) {
  w.u16be(tcp.src_port);
  w.u16be(tcp.dst_port);
  w.u32be(tcp.seq);
  w.u32be(tcp.ack);
  std::uint8_t data_offset = static_cast<std::uint8_t>(5 + options_bytes.size() / 4);
  w.u8(static_cast<std::uint8_t>(data_offset << 4));
  w.u8(tcp.flags_byte());
  w.u16be(tcp.window);
  w.u16be(0);  // checksum, patched once the segment is complete
  w.u16be(tcp.urgent_pointer);
  w.bytes(options_bytes);
}

}  // namespace

std::vector<std::uint8_t> build_frame(const FrameSpec& spec) {
  // --- Build the L4 segment (header+payload) first so L3 lengths are known.
  ByteWriter l4;
  std::size_t l4_checksum_off = 0;
  std::uint8_t ip_proto = 0;

  if (spec.tcp) {
    ip_proto = static_cast<std::uint8_t>(IpProto::Tcp);
    auto opts = encode_tcp_options(spec.tcp->options);
    l4_checksum_off = 16;
    write_tcp(l4, *spec.tcp, opts);
    l4.bytes(spec.payload);
  } else if (spec.udp) {
    ip_proto = static_cast<std::uint8_t>(IpProto::Udp);
    l4_checksum_off = 6;
    UdpHeader u = *spec.udp;
    u.length = static_cast<std::uint16_t>(UdpHeader::kSize + spec.payload.size());
    l4.u16be(u.src_port);
    l4.u16be(u.dst_port);
    l4.u16be(u.length);
    l4.u16be(0);  // checksum
    l4.bytes(spec.payload);
  } else if (spec.icmp) {
    ip_proto = spec.ipv6 ? static_cast<std::uint8_t>(IpProto::Icmpv6)
                         : static_cast<std::uint8_t>(IpProto::Icmp);
    l4_checksum_off = 2;
    l4.u8(spec.icmp->type);
    l4.u8(spec.icmp->code);
    l4.u16be(0);  // checksum
    l4.u32be(spec.icmp->rest);
    l4.bytes(spec.payload);
  } else {
    l4.bytes(spec.payload);
  }

  // --- L4 checksum over pseudo header + segment.
  if (spec.tcp || spec.udp || spec.icmp) {
    std::uint16_t csum = 0;
    if (spec.ipv4) {
      if (spec.icmp) {
        csum = checksum(l4.data());  // ICMPv4 has no pseudo header
      } else {
        csum = l4_checksum_v4(spec.ipv4->src, spec.ipv4->dst, ip_proto, l4.data());
      }
    } else if (spec.ipv6) {
      csum = l4_checksum_v6(spec.ipv6->src, spec.ipv6->dst, ip_proto, l4.data());
    }
    l4.patch_u16be(l4_checksum_off, csum);
  }

  // --- L3 header.
  ByteWriter frame;
  EthernetHeader eth = spec.eth;
  if (eth.ether_type == 0) {
    if (spec.arp)
      eth.ether_type = static_cast<std::uint16_t>(EtherType::Arp);
    else if (spec.ipv6)
      eth.ether_type = static_cast<std::uint16_t>(EtherType::Ipv6);
    else if (spec.ipv4)
      eth.ether_type = static_cast<std::uint16_t>(EtherType::Ipv4);
  }
  frame.bytes(eth.dst.octets);
  frame.bytes(eth.src.octets);
  frame.u16be(eth.ether_type);

  if (spec.arp) {
    const ArpHeader& a = *spec.arp;
    frame.u16be(a.hw_type);
    frame.u16be(a.proto_type);
    frame.u8(a.hw_len);
    frame.u8(a.proto_len);
    frame.u16be(a.opcode);
    frame.bytes(a.sender_mac.octets);
    frame.u32be(a.sender_ip.value);
    frame.bytes(a.target_mac.octets);
    frame.u32be(a.target_ip.value);
    return frame.take();
  }

  if (spec.ipv4) {
    Ipv4Header ip = *spec.ipv4;
    if (ip.protocol == 0) ip.protocol = ip_proto;
    ip.total_length = static_cast<std::uint16_t>(20 + l4.size());
    std::size_t ip_off = frame.size();
    frame.u8(static_cast<std::uint8_t>(4 << 4 | 5));
    frame.u8(ip.tos);
    frame.u16be(ip.total_length);
    frame.u16be(ip.identification);
    std::uint16_t frag = static_cast<std::uint16_t>(
        (ip.dont_fragment ? 0x4000 : 0) | (ip.more_fragments ? 0x2000 : 0) |
        (ip.fragment_offset & 0x1FFF));
    frame.u16be(frag);
    frame.u8(ip.ttl);
    frame.u8(ip.protocol);
    frame.u16be(0);
    frame.u32be(ip.src.value);
    frame.u32be(ip.dst.value);
    frame.patch_u16be(ip_off + 10,
                      checksum(std::span{frame.data()}.subspan(ip_off, 20)));
  } else if (spec.ipv6) {
    Ipv6Header ip = *spec.ipv6;
    if (ip.next_header == 0) ip.next_header = ip_proto;
    ip.payload_length = static_cast<std::uint16_t>(l4.size());
    frame.u32be(static_cast<std::uint32_t>(6) << 28 |
                static_cast<std::uint32_t>(ip.traffic_class) << 20 |
                (ip.flow_label & 0xFFFFF));
    frame.u16be(ip.payload_length);
    frame.u8(ip.next_header);
    frame.u8(ip.hop_limit);
    frame.bytes(ip.src.octets);
    frame.bytes(ip.dst.octets);
  }

  frame.bytes(l4.data());
  return frame.take();
}

Packet build_packet(const FrameSpec& spec, std::uint64_t ts_usec) {
  return Packet{.ts_usec = ts_usec, .data = build_frame(spec)};
}

}  // namespace sugar::net
