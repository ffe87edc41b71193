// Whole-trace property tests: every packet emitted by any generator must be
// wire-consistent (parseable, checksum-valid, length-coherent) — the
// invariant that makes the downstream ablation machinery (which re-verifies
// checksums) trustworthy.
#include <gtest/gtest.h>

#include "net/checksum.h"
#include "net/parser.h"
#include "trafficgen/datasets.h"

namespace sugar::trafficgen {
namespace {

enum class Gen { Iscx, Ustc, Cstn, Backbone };

class TraceInvariants : public ::testing::TestWithParam<Gen> {
 protected:
  GeneratedTrace make() {
    GenOptions o;
    o.seed = 31;
    o.flows_per_class = 2;
    o.spurious_fraction = 0.05;
    switch (GetParam()) {
      case Gen::Iscx: return generate_iscx_vpn(o);
      case Gen::Ustc: return generate_ustc_tfc(o);
      case Gen::Cstn: {
        o.spurious_fraction = 0;
        o.strip_tls_handshake = true;
        return generate_cstn_tls120(o);
      }
      case Gen::Backbone: return generate_backbone(31, 30);
    }
    return {};
  }
};

TEST_P(TraceInvariants, EveryPacketParses) {
  auto trace = make();
  ASSERT_GT(trace.size(), 50u);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    auto outcome = net::parse_packet(trace.packets[i]);
    EXPECT_TRUE(outcome.ok()) << "packet " << i << " failed to parse";
  }
}

TEST_P(TraceInvariants, Ipv4ChecksumsValid) {
  auto trace = make();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    auto outcome = net::parse_packet(trace.packets[i]);
    if (!outcome.ok() || !outcome.parsed->ipv4) continue;
    const auto& p = *outcome.parsed;
    auto hdr = std::span{trace.packets[i].data}.subspan(p.l3_offset,
                                                        p.ipv4->header_len());
    EXPECT_EQ(net::checksum(hdr), 0) << "packet " << i;
  }
}

TEST_P(TraceInvariants, TransportChecksumsValid) {
  auto trace = make();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    auto outcome = net::parse_packet(trace.packets[i]);
    if (!outcome.ok()) continue;
    const auto& p = *outcome.parsed;
    if (!p.ipv4 || (!p.tcp && !p.udp)) continue;
    auto seg = std::span{trace.packets[i].data}.subspan(p.l4_offset);
    EXPECT_EQ(net::l4_checksum_v4(p.ipv4->src, p.ipv4->dst, p.ip_protocol(), seg), 0)
        << "packet " << i;
  }
}

TEST_P(TraceInvariants, LengthFieldsCoherent) {
  auto trace = make();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    auto outcome = net::parse_packet(trace.packets[i]);
    if (!outcome.ok() || !outcome.parsed->ipv4) continue;
    const auto& p = *outcome.parsed;
    EXPECT_EQ(p.ipv4->total_length + p.l3_offset, trace.packets[i].data.size())
        << "packet " << i;
    if (p.udp) {
      EXPECT_EQ(p.udp->length, 8 + p.payload_len) << "packet " << i;
    }
  }
}

TEST_P(TraceInvariants, ParallelArraysAligned) {
  auto trace = make();
  EXPECT_EQ(trace.packets.size(), trace.labels.size());
  EXPECT_EQ(trace.packets.size(), trace.flow_of.size());
}

INSTANTIATE_TEST_SUITE_P(Generators, TraceInvariants,
                         ::testing::Values(Gen::Iscx, Gen::Ustc, Gen::Cstn,
                                           Gen::Backbone),
                         [](const auto& info) {
                           switch (info.param) {
                             case Gen::Iscx: return "IscxVpn";
                             case Gen::Ustc: return "UstcTfc";
                             case Gen::Cstn: return "CstnTls";
                             case Gen::Backbone: return "Backbone";
                           }
                           return "?";
                         });

}  // namespace
}  // namespace sugar::trafficgen
