// Round-trip property tests: frames built by the serializer must parse back
// to the same header fields, for every protocol combination and a sweep of
// payload sizes.
#include <gtest/gtest.h>

#include <random>

#include "core/artifact.h"
#include "net/parser.h"
#include "net/serializer.h"

namespace sugar::net {
namespace {

FrameSpec tcp_spec(std::size_t payload_len, bool with_options) {
  FrameSpec spec;
  spec.eth.src = *MacAddress::parse("02:00:00:00:00:01");
  spec.eth.dst = *MacAddress::parse("02:00:00:00:00:02");
  Ipv4Header ip;
  ip.src = Ipv4Address::from_octets(192, 168, 1, 10);
  ip.dst = Ipv4Address::from_octets(151, 101, 1, 140);
  ip.ttl = 57;
  ip.tos = 0x10;
  ip.identification = 0xBEEF;
  ip.dont_fragment = true;
  spec.ipv4 = ip;
  TcpHeader tcp;
  tcp.src_port = 51000;
  tcp.dst_port = 443;
  tcp.seq = 0xCAFEBABE;
  tcp.ack = 0x0DDF00D5;
  tcp.ack_flag = true;
  tcp.psh = payload_len > 0;
  tcp.window = 0x7210;
  if (with_options) {
    tcp.options.mss = 1460;
    tcp.options.window_scale = 7;
    tcp.options.sack_permitted = true;
    tcp.options.timestamp = {{0x11223344, 0x55667788}};
  }
  spec.tcp = tcp;
  std::mt19937_64 rng(payload_len);
  spec.payload.resize(payload_len);
  for (auto& b : spec.payload) b = static_cast<std::uint8_t>(rng());
  return spec;
}

class TcpRoundTrip : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(TcpRoundTrip, FieldsSurvive) {
  auto [payload_len, with_options] = GetParam();
  FrameSpec spec = tcp_spec(payload_len, with_options);
  Packet pkt = build_packet(spec, 12345);

  auto outcome = parse_packet(pkt);
  ASSERT_TRUE(outcome.ok());
  const auto& p = *outcome.parsed;
  ASSERT_TRUE(p.eth && p.ipv4 && p.tcp);

  EXPECT_EQ(p.eth->src, spec.eth.src);
  EXPECT_EQ(p.eth->dst, spec.eth.dst);
  EXPECT_EQ(p.eth->ether_type, 0x0800);

  EXPECT_EQ(p.ipv4->src, spec.ipv4->src);
  EXPECT_EQ(p.ipv4->dst, spec.ipv4->dst);
  EXPECT_EQ(p.ipv4->ttl, spec.ipv4->ttl);
  EXPECT_EQ(p.ipv4->tos, spec.ipv4->tos);
  EXPECT_EQ(p.ipv4->identification, spec.ipv4->identification);
  EXPECT_TRUE(p.ipv4->dont_fragment);
  EXPECT_EQ(p.ipv4->total_length, pkt.data.size() - EthernetHeader::kSize);

  EXPECT_EQ(p.tcp->src_port, spec.tcp->src_port);
  EXPECT_EQ(p.tcp->dst_port, spec.tcp->dst_port);
  EXPECT_EQ(p.tcp->seq, spec.tcp->seq);
  EXPECT_EQ(p.tcp->ack, spec.tcp->ack);
  EXPECT_EQ(p.tcp->window, spec.tcp->window);
  EXPECT_EQ(p.tcp->flags_byte(), spec.tcp->flags_byte());
  if (with_options) {
    ASSERT_TRUE(p.tcp->options.mss);
    EXPECT_EQ(*p.tcp->options.mss, 1460);
    ASSERT_TRUE(p.tcp->options.window_scale);
    EXPECT_EQ(*p.tcp->options.window_scale, 7);
    EXPECT_TRUE(p.tcp->options.sack_permitted);
    ASSERT_TRUE(p.tcp->options.timestamp);
    EXPECT_EQ(p.tcp->options.timestamp->first, 0x11223344u);
    EXPECT_EQ(p.tcp->options.timestamp->second, 0x55667788u);
  } else {
    EXPECT_FALSE(p.tcp->options.mss);
    EXPECT_FALSE(p.tcp->options.timestamp);
  }

  EXPECT_EQ(p.payload_len, payload_len);
  auto payload = p.payload_view(pkt);
  ASSERT_EQ(payload.size(), payload_len);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), spec.payload.begin()));
}

INSTANTIATE_TEST_SUITE_P(
    PayloadSweep, TcpRoundTrip,
    ::testing::Combine(::testing::Values<std::size_t>(0, 1, 2, 7, 64, 536, 1460),
                       ::testing::Bool()));

TEST(Parser, UdpRoundTrip) {
  FrameSpec spec;
  Ipv4Header ip;
  ip.src = Ipv4Address::from_octets(10, 0, 0, 1);
  ip.dst = Ipv4Address::from_octets(8, 8, 8, 8);
  spec.ipv4 = ip;
  UdpHeader udp;
  udp.src_port = 53124;
  udp.dst_port = 53;
  spec.udp = udp;
  spec.payload = {1, 2, 3};
  Packet pkt = build_packet(spec, 0);

  auto outcome = parse_packet(pkt);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.parsed->udp);
  EXPECT_EQ(outcome.parsed->udp->src_port, 53124);
  EXPECT_EQ(outcome.parsed->udp->dst_port, 53);
  EXPECT_EQ(outcome.parsed->udp->length, 11);
  EXPECT_EQ(outcome.parsed->payload_len, 3u);
}

TEST(Parser, IcmpRoundTrip) {
  FrameSpec spec;
  Ipv4Header ip;
  ip.src = Ipv4Address::from_octets(10, 0, 0, 1);
  ip.dst = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.ipv4 = ip;
  IcmpHeader icmp;
  icmp.type = 8;
  icmp.rest = 0x00010002;
  spec.icmp = icmp;
  spec.payload = std::vector<std::uint8_t>(32, 0x61);
  Packet pkt = build_packet(spec, 0);

  auto outcome = parse_packet(pkt);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.parsed->icmp);
  EXPECT_EQ(outcome.parsed->icmp->type, 8);
  EXPECT_EQ(outcome.parsed->icmp->rest, 0x00010002u);
  EXPECT_EQ(outcome.parsed->ip_protocol(), 1);
}

TEST(Parser, ArpRoundTrip) {
  FrameSpec spec;
  spec.eth.dst = MacAddress::broadcast();
  ArpHeader arp;
  arp.opcode = 1;
  arp.sender_ip = Ipv4Address::from_octets(192, 168, 0, 5);
  arp.target_ip = Ipv4Address::from_octets(192, 168, 0, 1);
  spec.arp = arp;
  Packet pkt = build_packet(spec, 0);

  auto outcome = parse_packet(pkt);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.parsed->arp);
  EXPECT_EQ(outcome.parsed->arp->opcode, 1);
  EXPECT_EQ(outcome.parsed->arp->target_ip, arp.target_ip);
  EXPECT_FALSE(outcome.parsed->has_ip());
}

TEST(Parser, Ipv6TcpRoundTrip) {
  FrameSpec spec;
  Ipv6Header ip;
  ip.src = *Ipv6Address::parse("2001:db8::1");
  ip.dst = *Ipv6Address::parse("2001:db8::2");
  ip.hop_limit = 55;
  ip.flow_label = 0xABCDE;
  spec.ipv6 = ip;
  TcpHeader tcp;
  tcp.src_port = 50000;
  tcp.dst_port = 443;
  tcp.seq = 42;
  spec.tcp = tcp;
  spec.payload = {9, 9, 9};
  Packet pkt = build_packet(spec, 0);

  auto outcome = parse_packet(pkt);
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(outcome.parsed->ipv6);
  EXPECT_EQ(outcome.parsed->ipv6->src, ip.src);
  EXPECT_EQ(outcome.parsed->ipv6->hop_limit, 55);
  EXPECT_EQ(outcome.parsed->ipv6->flow_label, 0xABCDEu);
  ASSERT_TRUE(outcome.parsed->tcp);
  EXPECT_EQ(outcome.parsed->tcp->dst_port, 443);
  EXPECT_EQ(outcome.parsed->payload_len, 3u);
}

TEST(Parser, TruncatedFramesFailCleanly) {
  FrameSpec spec = tcp_spec(100, true);
  Packet pkt = build_packet(spec, 0);

  // Truncating inside the TCP header is an error.
  Packet cut = pkt;
  cut.data.resize(EthernetHeader::kSize + 20 + 10);
  auto outcome = parse_packet(cut);
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error, ParseError::TruncatedTcp);

  // Truncating inside the Ethernet header is an error.
  Packet tiny = pkt;
  tiny.data.resize(10);
  EXPECT_EQ(parse_packet(tiny).error, ParseError::TruncatedEthernet);

  // Truncating payload only is fine (snaplen capture): payload_len shrinks.
  Packet snap = pkt;
  snap.data.resize(snap.data.size() - 50);
  auto ok = parse_packet(snap);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.parsed->payload_len, 50u);
}

TEST(Parser, UnknownEtherTypeStopsAtL2) {
  Packet pkt;
  pkt.data.assign(EthernetHeader::kSize + 8, 0);
  pkt.data[12] = 0x88;  // unknown ethertype 0x88B5
  pkt.data[13] = 0xB5;
  auto outcome = parse_packet(pkt);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.parsed->eth);
  EXPECT_FALSE(outcome.parsed->has_ip());
}

TEST(Parser, BadIpVersionRejected) {
  FrameSpec spec = tcp_spec(0, false);
  Packet pkt = build_packet(spec, 0);
  pkt.data[EthernetHeader::kSize] = 0x35;  // version 3
  EXPECT_EQ(parse_packet(pkt).error, ParseError::BadIpv4Header);
}

TEST(Serializer, TcpOptionsArePadded) {
  TcpOptions opts;
  opts.window_scale = 7;  // 3 bytes -> padded to 4
  auto bytes = encode_tcp_options(opts);
  EXPECT_EQ(bytes.size() % 4, 0u);
  EXPECT_EQ(bytes[0], 3);
  EXPECT_EQ(bytes[1], 3);
  EXPECT_EQ(bytes[2], 7);
  EXPECT_EQ(bytes[3], 1);  // NOP pad
}

// build_frame bytes for TCP, UDP and ICMP over IPv4 and IPv6. Every spec
// carries stale checksum fields, which the serializer overwrites with
// computed ones.
TEST(Serializer, FrameBytesPinnedPerTransportAndIpVersion) {
  std::string frames;
  for (const bool v6 : {false, true}) {
    for (int l4 = 0; l4 < 3; ++l4) {
      FrameSpec spec = tcp_spec(37, /*with_options=*/l4 == 0);
      spec.ipv4->header_checksum = 0xDEAD;
      if (v6) {
        Ipv6Header ip;
        ip.src = *Ipv6Address::parse("2001:db8::10");
        ip.dst = *Ipv6Address::parse("2001:db8:5::1");
        ip.hop_limit = 61;
        ip.traffic_class = 0x20;
        ip.flow_label = 0x12345;
        spec.ipv4.reset();
        spec.ipv6 = ip;
      }
      if (l4 == 0) {
        spec.tcp->checksum = 0xBEEF;
      } else if (l4 == 1) {
        spec.tcp.reset();
        UdpHeader udp;
        udp.src_port = 53124;
        udp.dst_port = 443;
        udp.checksum = 0xBEEF;
        spec.udp = udp;
      } else {
        spec.tcp.reset();
        IcmpHeader icmp;
        icmp.type = v6 ? 128 : 8;
        icmp.rest = 0x00070009;
        icmp.checksum = 0xBEEF;
        spec.icmp = icmp;
      }
      const auto bytes = build_frame(spec);
      frames.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
      frames += '|';
    }
  }
  EXPECT_EQ(core::fnv1a64(frames), 0xe03e96e2d8f91dbcull);
}

TEST(SpuriousClassifier, Taxonomy) {
  // ARP -> network management.
  FrameSpec arp_spec;
  arp_spec.arp = ArpHeader{};
  auto arp = parse_packet(build_packet(arp_spec, 0));
  EXPECT_EQ(classify_spurious(*arp.parsed), SpuriousCategory::NetworkManagement);

  // UDP 5355 -> link-local (LLMNR).
  FrameSpec llmnr;
  Ipv4Header ip;
  ip.src = Ipv4Address::from_octets(192, 168, 0, 3);
  ip.dst = Ipv4Address::from_octets(224, 0, 0, 252);
  llmnr.ipv4 = ip;
  UdpHeader udp;
  udp.src_port = 54321;
  udp.dst_port = 5355;
  llmnr.udp = udp;
  auto l = parse_packet(build_packet(llmnr, 0));
  EXPECT_EQ(classify_spurious(*l.parsed), SpuriousCategory::LinkLocal);

  // TCP 443 app traffic -> None (task-relevant).
  auto app = parse_packet(build_packet(tcp_spec(10, false), 0));
  EXPECT_EQ(classify_spurious(*app.parsed), SpuriousCategory::None);

  // NTP -> network time.
  llmnr.udp->dst_port = 123;
  auto ntp = parse_packet(build_packet(llmnr, 0));
  EXPECT_EQ(classify_spurious(*ntp.parsed), SpuriousCategory::NetworkTime);
}

}  // namespace
}  // namespace sugar::net
