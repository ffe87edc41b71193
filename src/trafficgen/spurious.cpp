#include "trafficgen/spurious.h"

#include <algorithm>

#include "net/bytes.h"
#include "net/serializer.h"
#include "trafficgen/payload.h"

namespace sugar::trafficgen {
namespace {

using net::SpuriousCategory;

net::MacAddress random_mac(Rng& rng) {
  net::MacAddress m;
  for (auto& o : m.octets) o = rng.u8();
  m.octets[0] &= 0xFE;  // unicast
  return m;
}

net::Ipv4Address lan_ip(Rng& rng) {
  return net::Ipv4Address::from_octets(192, 168, static_cast<std::uint8_t>(rng.uniform_int(0, 3)),
                                       static_cast<std::uint8_t>(rng.uniform_int(2, 254)));
}

net::Packet udp_spurious(Rng& rng, std::uint64_t ts, std::uint16_t src_port,
                         std::uint16_t dst_port, net::Ipv4Address dst,
                         std::vector<std::uint8_t> payload, bool multicast_mac = false) {
  net::FrameSpec spec;
  spec.eth.src = random_mac(rng);
  spec.eth.dst = multicast_mac ? net::MacAddress{{0x01, 0x00, 0x5E, 0, 0, 1}}
                               : random_mac(rng);
  net::Ipv4Header ip;
  ip.src = lan_ip(rng);
  ip.dst = dst;
  ip.ttl = multicast_mac ? 1 : 64;
  ip.identification = rng.u16();
  spec.ipv4 = ip;
  net::UdpHeader udp;
  udp.src_port = src_port;
  udp.dst_port = dst_port;
  spec.udp = udp;
  spec.payload = std::move(payload);
  return net::build_packet(spec, ts);
}

}  // namespace

net::SpuriousCategory random_spurious_category(Rng& rng) {
  // Weights follow the relative magnitudes in Table 13 (ISCX column):
  // link-local >> network management > nat >> the long tail.
  static const std::vector<double> kWeights = {
      0,     // None (never)
      55.0,  // LinkLocal
      27.0,  // NetworkManagement
      12.0,  // Nat
      1.5,   // RouteManagement
      0.6,   // ServiceManagement
      0.2,   // RealTime
      0.2,   // NetworkTime
      0.1,   // LinkManagement
      0.1,   // Security
      0.1,   // RemoteAccess
      0.1,   // IotManagement
      0.05,  // Quake
      0.05,  // Others
  };
  return static_cast<SpuriousCategory>(rng.weighted_choice(kWeights));
}

net::Packet make_spurious_packet(SpuriousCategory category, Rng& rng,
                                 std::uint64_t ts) {
  switch (category) {
    case SpuriousCategory::LinkLocal: {
      int pick = static_cast<int>(rng.uniform_int(0, 2));
      std::string name = "host-" + std::to_string(rng.uniform_int(1, 99)) + ".local";
      if (pick == 0)
        return udp_spurious(rng, ts, 5355, net::ports::kLlmnr,
                            net::Ipv4Address::from_octets(224, 0, 0, 252),
                            dns_query_payload(rng, name), true);
      if (pick == 1)
        return udp_spurious(rng, ts, 137, net::ports::kNbns,
                            net::Ipv4Address::from_octets(192, 168, 0, 255),
                            rng.bytes(50));
      return udp_spurious(rng, ts, 5353, net::ports::kMdns,
                          net::Ipv4Address::from_octets(224, 0, 0, 251),
                          dns_query_payload(rng, name), true);
    }
    case SpuriousCategory::NetworkManagement: {
      int pick = static_cast<int>(rng.uniform_int(0, 2));
      if (pick == 0) {  // ARP request
        net::FrameSpec spec;
        spec.eth.src = random_mac(rng);
        spec.eth.dst = net::MacAddress::broadcast();
        net::ArpHeader arp;
        arp.opcode = 1;
        arp.sender_mac = spec.eth.src;
        arp.sender_ip = lan_ip(rng);
        arp.target_ip = lan_ip(rng);
        spec.arp = arp;
        return net::build_packet(spec, ts);
      }
      if (pick == 1) {  // DHCP discover
        return udp_spurious(rng, ts, net::ports::kDhcpClient, net::ports::kDhcpServer,
                            net::Ipv4Address::from_octets(255, 255, 255, 255),
                            rng.bytes(240));
      }
      // ICMP echo request
      net::FrameSpec spec;
      spec.eth.src = random_mac(rng);
      spec.eth.dst = random_mac(rng);
      net::Ipv4Header ip;
      ip.src = lan_ip(rng);
      ip.dst = lan_ip(rng);
      ip.identification = rng.u16();
      spec.ipv4 = ip;
      net::IcmpHeader icmp;
      icmp.type = 8;
      icmp.rest = rng.u32();
      spec.icmp = icmp;
      spec.payload = rng.bytes(32);
      return net::build_packet(spec, ts);
    }
    case SpuriousCategory::Nat:
      return udp_spurious(rng, ts, static_cast<std::uint16_t>(rng.uniform_int(40000, 65000)),
                          net::ports::kStun,
                          net::Ipv4Address::from_octets(74, 125, 250, 129),
                          rng.bytes(20));
    case SpuriousCategory::RouteManagement:
      return udp_spurious(rng, ts, net::ports::kDbLsp, net::ports::kDbLsp,
                          net::Ipv4Address::from_octets(192, 168, 0, 255),
                          rng.bytes(120));
    case SpuriousCategory::ServiceManagement:
      return udp_spurious(rng, ts, static_cast<std::uint16_t>(rng.uniform_int(40000, 65000)),
                          net::ports::kSsdp,
                          net::Ipv4Address::from_octets(239, 255, 255, 250),
                          http_request_payload(rng, "239.255.255.250:1900", 0), true);
    case SpuriousCategory::RealTime:
      return udp_spurious(rng, ts, net::ports::kRtcp, net::ports::kRtcp, lan_ip(rng),
                          rng.bytes(64));
    case SpuriousCategory::NetworkTime:
      return udp_spurious(rng, ts, net::ports::kNtp, net::ports::kNtp,
                          net::Ipv4Address::from_octets(129, 6, 15, 28), rng.bytes(48));
    case SpuriousCategory::LinkManagement: {
      // LLC frame: EtherType field carries a length (< 0x0600).
      static constexpr std::uint8_t kStpMulticast[] = {0x01, 0x80, 0xC2, 0x00, 0x00, 0x00};
      net::ByteWriter frame(14 + 38);
      frame.bytes(kStpMulticast);
      frame.bytes(random_mac(rng).octets);
      frame.u16be(38);  // length
      frame.bytes(rng.bytes(38));
      return net::Packet{.ts_usec = ts, .data = frame.take()};
    }
    case SpuriousCategory::Security:
      return udp_spurious(rng, ts, static_cast<std::uint16_t>(rng.uniform_int(40000, 65000)),
                          19 /*chargen*/, lan_ip(rng), rng.bytes(72));
    case SpuriousCategory::RemoteAccess: {
      // VNC-ish TCP packet.
      net::FrameSpec spec;
      spec.eth.src = random_mac(rng);
      spec.eth.dst = random_mac(rng);
      net::Ipv4Header ip;
      ip.src = lan_ip(rng);
      ip.dst = lan_ip(rng);
      ip.identification = rng.u16();
      spec.ipv4 = ip;
      net::TcpHeader tcp;
      tcp.src_port = static_cast<std::uint16_t>(rng.uniform_int(40000, 65000));
      tcp.dst_port = net::ports::kVnc;
      tcp.seq = rng.u32();
      tcp.ack = rng.u32();
      tcp.ack_flag = true;
      tcp.psh = true;
      tcp.window = 0xFFFF;
      spec.tcp = tcp;
      spec.payload = rng.bytes(24);
      return net::build_packet(spec, ts);
    }
    case SpuriousCategory::IotManagement:
      return udp_spurious(rng, ts, static_cast<std::uint16_t>(rng.uniform_int(40000, 65000)),
                          net::ports::kCoap, lan_ip(rng), rng.bytes(16));
    case SpuriousCategory::Quake:
      return udp_spurious(rng, ts, static_cast<std::uint16_t>(rng.uniform_int(27960, 27970)),
                          net::ports::kQuake3, lan_ip(rng), rng.bytes(40));
    case SpuriousCategory::Others: {
      net::FrameSpec spec;
      spec.eth.src = random_mac(rng);
      spec.eth.dst = random_mac(rng);
      net::Ipv4Header ip;
      ip.src = lan_ip(rng);
      ip.dst = net::Ipv4Address::from_octets(34, 65, 12, 9);
      ip.identification = rng.u16();
      spec.ipv4 = ip;
      net::TcpHeader tcp;
      tcp.src_port = static_cast<std::uint16_t>(rng.uniform_int(40000, 65000));
      tcp.dst_port = net::ports::kBitcoin;
      tcp.seq = rng.u32();
      tcp.ack_flag = true;
      tcp.window = 0xFFFF;
      spec.tcp = tcp;
      spec.payload = rng.bytes(80);
      return net::build_packet(spec, ts);
    }
    case SpuriousCategory::None:
    case SpuriousCategory::kCount:
      break;
  }
  // Fallback: ARP.
  return make_spurious_packet(SpuriousCategory::NetworkManagement, rng, ts);
}

std::vector<std::size_t> inject_spurious(std::vector<net::Packet>& trace,
                                         double fraction, Rng& rng) {
  if (trace.empty() || fraction <= 0) return {};
  std::size_t n_spurious = static_cast<std::size_t>(
      fraction / (1.0 - fraction) * static_cast<double>(trace.size()));
  std::vector<std::size_t> positions;
  positions.reserve(n_spurious);
  for (std::size_t i = 0; i < n_spurious; ++i)
    positions.push_back(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(trace.size()) - 1)));
  std::sort(positions.rbegin(), positions.rend());

  // Packets are drawn in that order. One drawn at a position already drawn
  // copies the timestamp of the packet drawn there before it and lands in
  // front of it, as inserting each into the trace in turn would.
  std::vector<net::Packet> spurious;
  spurious.reserve(positions.size());
  for (std::size_t k = 0; k < positions.size(); ++k) {
    const std::size_t pos = positions[k];
    const std::uint64_t ts = k > 0 && positions[k - 1] == pos ? spurious[k - 1].ts_usec
                                                              : trace[pos].ts_usec;
    auto cat = random_spurious_category(rng);
    spurious.push_back(make_spurious_packet(cat, rng, ts));
  }

  // One merge pass; reading the draws from the back visits positions in
  // ascending order.
  std::vector<net::Packet> merged;
  merged.reserve(trace.size() + spurious.size());
  std::size_t k = spurious.size();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    for (; k > 0 && positions[k - 1] == i; --k) merged.push_back(std::move(spurious[k - 1]));
    merged.push_back(std::move(trace[i]));
  }
  trace = std::move(merged);
  return positions;
}

}  // namespace sugar::trafficgen
