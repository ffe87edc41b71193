#include <gtest/gtest.h>

#include "net/checksum.h"
#include "net/flow.h"
#include "net/parser.h"
#include "trafficgen/session.h"

namespace sugar::trafficgen {
namespace {

TcpSessionParams sample_params() {
  TcpSessionParams p;
  p.client.mac = *net::MacAddress::parse("02:00:00:00:00:01");
  p.client.ip = net::Ipv4Address::from_octets(192, 168, 0, 10);
  p.client.port = 50123;
  p.client.ts_base = 1000;
  p.server.mac = *net::MacAddress::parse("02:00:00:00:00:02");
  p.server.ip = net::Ipv4Address::from_octets(10, 1, 2, 3);
  p.server.port = 443;
  p.server.ts_base = 999999;
  p.start_usec = 1'000'000;
  p.mss = 100;  // force segmentation in tests
  p.ack_probability = 0.0;  // deterministic packet count
  return p;
}

TEST(TcpSession, HandshakeSemantics) {
  Rng rng(1);
  TcpSessionBuilder s(sample_params(), rng);
  s.handshake();
  auto pkts = s.take();
  ASSERT_EQ(pkts.size(), 3u);

  auto syn = *net::parse_packet(pkts[0]).parsed;
  auto synack = *net::parse_packet(pkts[1]).parsed;
  auto ack = *net::parse_packet(pkts[2]).parsed;

  EXPECT_TRUE(syn.tcp->syn);
  EXPECT_FALSE(syn.tcp->ack_flag);
  ASSERT_TRUE(syn.tcp->options.mss);
  EXPECT_EQ(*syn.tcp->options.mss, 100);

  EXPECT_TRUE(synack.tcp->syn);
  EXPECT_TRUE(synack.tcp->ack_flag);
  // SYN consumes one sequence number.
  EXPECT_EQ(synack.tcp->ack, syn.tcp->seq + 1);

  EXPECT_FALSE(ack.tcp->syn);
  EXPECT_TRUE(ack.tcp->ack_flag);
  EXPECT_EQ(ack.tcp->ack, synack.tcp->seq + 1);
  EXPECT_EQ(ack.tcp->seq, syn.tcp->seq + 1);

  // Timestamps come from the per-endpoint clocks.
  ASSERT_TRUE(syn.tcp->options.timestamp);
  EXPECT_GE(syn.tcp->options.timestamp->first, 1000u);
  EXPECT_LT(syn.tcp->options.timestamp->first, 999999u);
}

TEST(TcpSession, SequenceNumbersAdvanceByPayload) {
  Rng rng(2);
  TcpSessionBuilder s(sample_params(), rng);
  s.handshake();
  s.send(true, std::vector<std::uint8_t>(250, 0x41));  // 3 segments at MSS 100
  auto pkts = s.take();
  ASSERT_EQ(pkts.size(), 6u);  // 3 handshake + 3 data

  auto d0 = *net::parse_packet(pkts[3]).parsed;
  auto d1 = *net::parse_packet(pkts[4]).parsed;
  auto d2 = *net::parse_packet(pkts[5]).parsed;
  EXPECT_EQ(d0.payload_len, 100u);
  EXPECT_EQ(d1.payload_len, 100u);
  EXPECT_EQ(d2.payload_len, 50u);
  EXPECT_EQ(d1.tcp->seq, d0.tcp->seq + 100);
  EXPECT_EQ(d2.tcp->seq, d0.tcp->seq + 200);
  EXPECT_TRUE(d2.tcp->psh);
  EXPECT_FALSE(d0.tcp->psh);
}

TEST(TcpSession, AllPacketsChecksumClean) {
  Rng rng(3);
  TcpSessionParams params = sample_params();
  params.ack_probability = 0.7;
  TcpSessionBuilder s(params, rng);
  s.handshake();
  s.send(true, rng.bytes(300));
  s.send(false, rng.bytes(777));
  s.finish();
  for (const auto& pkt : s.packets()) {
    auto outcome = net::parse_packet(pkt);
    ASSERT_TRUE(outcome.ok());
    const auto& p = *outcome.parsed;
    auto hdr = std::span{pkt.data}.subspan(p.l3_offset, p.ipv4->header_len());
    EXPECT_EQ(net::checksum(hdr), 0);
    auto seg = std::span{pkt.data}.subspan(p.l4_offset);
    EXPECT_EQ(net::l4_checksum_v4(p.ipv4->src, p.ipv4->dst, 6, seg), 0);
  }
}

TEST(TcpSession, OneFlowOneKey) {
  Rng rng(4);
  TcpSessionBuilder s(sample_params(), rng);
  s.handshake();
  s.send(true, rng.bytes(120));
  s.send(false, rng.bytes(450));
  s.finish();
  auto pkts = s.take();
  auto table = net::assemble_flows(pkts);
  EXPECT_EQ(table.flows().size(), 1u);
  EXPECT_EQ(table.flows()[0].size(), pkts.size());
}

TEST(TcpSession, TimestampsMonotonePerEndpoint) {
  Rng rng(5);
  TcpSessionBuilder s(sample_params(), rng);
  s.handshake();
  for (int i = 0; i < 5; ++i) {
    s.send(true, rng.bytes(50));
    s.wait_usec(10'000);
  }
  std::uint32_t last_client_tsval = 0;
  std::uint64_t last_ts = 0;
  for (const auto& pkt : s.packets()) {
    EXPECT_GE(pkt.ts_usec, last_ts);
    last_ts = pkt.ts_usec;
    auto p = *net::parse_packet(pkt).parsed;
    if (p.ipv4->src == net::Ipv4Address::from_octets(192, 168, 0, 10)) {
      ASSERT_TRUE(p.tcp->options.timestamp);
      EXPECT_GE(p.tcp->options.timestamp->first, last_client_tsval);
      last_client_tsval = p.tcp->options.timestamp->first;
    }
  }
}

TEST(TcpSession, IpIdIncrementsPerHost) {
  Rng rng(6);
  TcpSessionBuilder s(sample_params(), rng);
  s.handshake();
  s.send(true, rng.bytes(10));
  s.send(true, rng.bytes(10));
  auto pkts = s.take();
  std::vector<std::uint16_t> client_ids;
  for (const auto& pkt : pkts) {
    auto p = *net::parse_packet(pkt).parsed;
    if (p.ipv4->src == net::Ipv4Address::from_octets(192, 168, 0, 10))
      client_ids.push_back(p.ipv4->identification);
  }
  ASSERT_GE(client_ids.size(), 3u);
  for (std::size_t i = 1; i < client_ids.size(); ++i)
    EXPECT_EQ(client_ids[i], static_cast<std::uint16_t>(client_ids[i - 1] + 1));
}

TEST(TcpSession, DistinctFlowsHaveDistinctImplicitIds) {
  // Two sessions with identical endpoints but separate RNG streams must get
  // different ISNs and timestamp bases — the property the whole paper
  // hinges on.
  Rng rng1(7), rng2(8);
  TcpSessionParams params = sample_params();
  params.client.ts_base = 111;
  TcpSessionBuilder s1(params, rng1);
  params.client.ts_base = 999;
  TcpSessionBuilder s2(params, rng2);
  s1.handshake();
  s2.handshake();
  auto p1 = *net::parse_packet(s1.packets()[0]).parsed;
  auto p2 = *net::parse_packet(s2.packets()[0]).parsed;
  EXPECT_NE(p1.tcp->seq, p2.tcp->seq);
  EXPECT_NE(p1.tcp->options.timestamp->first, p2.tcp->options.timestamp->first);
}

TEST(UdpSession, DatagramsAndIds) {
  Rng rng(9);
  UdpSessionParams params;
  params.client.ip = net::Ipv4Address::from_octets(192, 168, 1, 1);
  params.client.port = 40000;
  params.server.ip = net::Ipv4Address::from_octets(8, 8, 4, 4);
  params.server.port = 1194;
  UdpSessionBuilder s(params, rng);
  s.send(true, rng.bytes(100));
  s.send(false, rng.bytes(200));
  s.send(true, rng.bytes(50));
  auto pkts = s.take();
  ASSERT_EQ(pkts.size(), 3u);
  auto p0 = *net::parse_packet(pkts[0]).parsed;
  auto p2 = *net::parse_packet(pkts[2]).parsed;
  EXPECT_EQ(p0.udp->dst_port, 1194);
  EXPECT_EQ(p2.ipv4->identification,
            static_cast<std::uint16_t>(p0.ipv4->identification + 1));
  auto table = net::assemble_flows(pkts);
  EXPECT_EQ(table.flows().size(), 1u);
}

TEST(TcpSession, RstAbort) {
  Rng rng(10);
  TcpSessionBuilder s(sample_params(), rng);
  s.handshake();
  s.abort(true);
  auto pkts = s.take();
  auto p = *net::parse_packet(pkts.back()).parsed;
  ASSERT_TRUE(p.tcp);
  EXPECT_TRUE(p.tcp->rst);
}

}  // namespace
}  // namespace sugar::trafficgen
