#include <gtest/gtest.h>

#include <set>

#include "net/flow.h"
#include "net/parser.h"
#include "trafficgen/datasets.h"

namespace sugar::trafficgen {
namespace {

GenOptions small_opts(std::uint64_t seed = 11) {
  GenOptions o;
  o.seed = seed;
  o.flows_per_class = 2;
  return o;
}

TEST(Datasets, IscxLabelsConsistentPerFlow) {
  auto trace = generate_iscx_vpn(small_opts());
  ASSERT_GT(trace.size(), 100u);
  ASSERT_EQ(trace.packets.size(), trace.labels.size());
  ASSERT_EQ(trace.packets.size(), trace.flow_of.size());

  // All packets of one generator flow share the same labels.
  std::map<int, PacketLabel> label_of_flow;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    int f = trace.flow_of[i];
    if (f < 0) continue;
    auto [it, inserted] = label_of_flow.emplace(f, trace.labels[i]);
    if (!inserted) {
      EXPECT_EQ(it->second.cls, trace.labels[i].cls);
      EXPECT_EQ(it->second.service, trace.labels[i].service);
      EXPECT_EQ(it->second.binary, trace.labels[i].binary);
    }
  }
  // 16 app classes, 6 services, both VPN variants present.
  std::set<int> apps, services, binaries;
  for (const auto& l : trace.labels) {
    if (l.cls >= 0) apps.insert(l.cls);
    if (l.service >= 0) services.insert(l.service);
    if (l.binary >= 0) binaries.insert(l.binary);
  }
  EXPECT_EQ(apps.size(), 16u);
  EXPECT_EQ(services.size(), 6u);
  EXPECT_EQ(binaries, (std::set<int>{0, 1}));
  EXPECT_EQ(trace.class_names.size(), 16u);
  EXPECT_EQ(trace.service_names.size(), 6u);
}

TEST(Datasets, TraceIsTimeOrdered) {
  auto trace = generate_ustc_tfc(small_opts());
  for (std::size_t i = 1; i < trace.size(); ++i)
    EXPECT_LE(trace.packets[i - 1].ts_usec, trace.packets[i].ts_usec);
}

TEST(Datasets, DeterministicAcrossRuns) {
  auto a = generate_cstn_tls120(small_opts(77));
  auto b = generate_cstn_tls120(small_opts(77));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.packets[i].data, b.packets[i].data);
    EXPECT_EQ(a.packets[i].ts_usec, b.packets[i].ts_usec);
  }
  auto c = generate_cstn_tls120(small_opts(78));
  bool identical = a.size() == c.size();
  if (identical)
    for (std::size_t i = 0; i < a.size(); ++i)
      if (a.packets[i].data != c.packets[i].data) {
        identical = false;
        break;
      }
  EXPECT_FALSE(identical) << "different seeds must differ";
}

TEST(Datasets, SpuriousFractionRoughlyRespected) {
  GenOptions o = small_opts();
  o.flows_per_class = 3;
  o.spurious_fraction = 0.10;
  auto trace = generate_ustc_tfc(o);
  double frac = static_cast<double>(trace.num_spurious()) /
                static_cast<double>(trace.size());
  EXPECT_NEAR(frac, 0.10, 0.03);
  // Spurious packets carry no labels.
  for (std::size_t i = 0; i < trace.size(); ++i)
    if (trace.flow_of[i] < 0) {
      EXPECT_EQ(trace.labels[i].cls, -1);
      EXPECT_EQ(trace.labels[i].binary, -1);
    }
}

TEST(Datasets, CstnStripsHandshakeAndHello) {
  GenOptions with = small_opts();
  with.strip_tls_handshake = true;
  auto stripped = generate_cstn_tls120(with);

  // No SYN packets and no TLS ClientHello (0x16 handshake type 0x01 in
  // the first payload bytes) must survive.
  int syn_count = 0, hello_count = 0;
  for (const auto& pkt : stripped.packets) {
    auto outcome = net::parse_packet(pkt);
    if (!outcome.ok() || !outcome.parsed->tcp) continue;
    if (outcome.parsed->tcp->syn) ++syn_count;
    auto payload = outcome.parsed->payload_view(pkt);
    if (payload.size() > 5 && payload[0] == 0x16 && payload[5] == 0x01) ++hello_count;
  }
  EXPECT_EQ(syn_count, 0);
  EXPECT_EQ(hello_count, 0);

  GenOptions without = small_opts();
  without.strip_tls_handshake = false;
  auto full = generate_cstn_tls120(without);
  int syn_full = 0;
  for (const auto& pkt : full.packets) {
    auto outcome = net::parse_packet(pkt);
    if (outcome.ok() && outcome.parsed->tcp && outcome.parsed->tcp->syn) ++syn_full;
  }
  EXPECT_GT(syn_full, 0);
}

TEST(Datasets, Tls120Has120Classes) {
  auto trace = generate_cstn_tls120(small_opts());
  std::set<int> classes;
  for (const auto& l : trace.labels) classes.insert(l.cls);
  EXPECT_EQ(classes.size(), 120u);
  EXPECT_EQ(trace.class_names.size(), 120u);
  // TLS-120 has no service/binary tasks.
  for (const auto& l : trace.labels) {
    EXPECT_EQ(l.service, -1);
    EXPECT_EQ(l.binary, -1);
  }
}

TEST(Datasets, GeneratorFlowsMatchWireFlows) {
  // The generator's flow ids must agree with flows re-derived from the
  // wire bytes via FlowTable (cross-check of the whole stack).
  auto trace = generate_cstn_tls120(small_opts());
  const net::FlowTable table = net::assemble_flows(trace.packets);
  std::map<int, std::set<int>> wire_to_gen;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    int wire = table.flow_of_packet()[i];
    if (wire >= 0) wire_to_gen[wire].insert(trace.flow_of[i]);
  }
  for (const auto& [wire, gens] : wire_to_gen)
    EXPECT_EQ(gens.size(), 1u) << "wire flow " << wire
                               << " spans multiple generator flows";
}

TEST(Datasets, BackboneIsUnlabeledAndDiverse) {
  auto trace = generate_backbone(3, 40);
  EXPECT_GT(trace.size(), 200u);
  for (const auto& l : trace.labels) EXPECT_EQ(l.cls, -1);
  // Contains both TCP and UDP.
  bool tcp = false, udp = false;
  for (const auto& pkt : trace.packets) {
    auto outcome = net::parse_packet(pkt);
    if (!outcome.ok()) continue;
    tcp = tcp || outcome.parsed->tcp.has_value();
    udp = udp || outcome.parsed->udp.has_value();
  }
  EXPECT_TRUE(tcp);
  EXPECT_TRUE(udp);
}

TEST(Datasets, VpnFlowsGoToGateway) {
  GenOptions o = small_opts();
  o.flows_per_class = 4;
  o.vpn_fraction = 1.0;
  auto trace = generate_iscx_vpn(o);
  // Every labelled packet is VPN; server endpoint is a gateway 131.202.240.x
  // over UDP 1194.
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.labels[i].cls < 0) continue;
    EXPECT_EQ(trace.labels[i].binary, 1);
    auto p = *net::parse_packet(trace.packets[i]).parsed;
    ASSERT_TRUE(p.udp.has_value());
    bool to_gw = p.ipv4->dst.in_subnet(net::Ipv4Address::from_octets(131, 202, 240, 0), 24);
    bool from_gw = p.ipv4->src.in_subnet(net::Ipv4Address::from_octets(131, 202, 240, 0), 24);
    EXPECT_TRUE(to_gw || from_gw);
  }
}

}  // namespace
}  // namespace sugar::trafficgen
