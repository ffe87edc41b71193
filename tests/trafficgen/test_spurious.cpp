#include <gtest/gtest.h>

#include "net/parser.h"
#include "trafficgen/datasets.h"
#include "trafficgen/spurious.h"

namespace sugar::trafficgen {
namespace {

using net::SpuriousCategory;

/// Every generated spurious packet must be classified back into its own
/// category by the cleaning taxonomy — generator and filter must agree.
class SpuriousRoundTrip : public ::testing::TestWithParam<SpuriousCategory> {};

TEST_P(SpuriousRoundTrip, ClassifierAgreesWithGenerator) {
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    auto pkt = make_spurious_packet(GetParam(), rng, 1000);
    auto outcome = net::parse_packet(pkt);
    SpuriousCategory got = SpuriousCategory::LinkManagement;
    if (outcome.ok()) got = net::classify_spurious(*outcome.parsed);
    EXPECT_EQ(got, GetParam()) << "iteration " << i;
    EXPECT_NE(got, SpuriousCategory::None)
        << "spurious packets must never look task-relevant";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCategories, SpuriousRoundTrip,
    ::testing::Values(SpuriousCategory::LinkLocal, SpuriousCategory::NetworkManagement,
                      SpuriousCategory::Nat, SpuriousCategory::RouteManagement,
                      SpuriousCategory::ServiceManagement, SpuriousCategory::RealTime,
                      SpuriousCategory::NetworkTime, SpuriousCategory::LinkManagement,
                      SpuriousCategory::RemoteAccess, SpuriousCategory::IotManagement,
                      SpuriousCategory::Quake, SpuriousCategory::Others),
    [](const auto& info) {
      std::string name = net::to_string(info.param);
      for (auto& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

TEST(Spurious, WeightedMixDominatedByLinkLocal) {
  Rng rng(5);
  std::array<int, static_cast<std::size_t>(SpuriousCategory::kCount)> hist{};
  for (int i = 0; i < 2000; ++i)
    ++hist[static_cast<std::size_t>(random_spurious_category(rng))];
  EXPECT_EQ(hist[static_cast<std::size_t>(SpuriousCategory::None)], 0);
  EXPECT_GT(hist[static_cast<std::size_t>(SpuriousCategory::LinkLocal)],
            hist[static_cast<std::size_t>(SpuriousCategory::Nat)]);
  EXPECT_GT(hist[static_cast<std::size_t>(SpuriousCategory::NetworkManagement)],
            hist[static_cast<std::size_t>(SpuriousCategory::NetworkTime)]);
}

TEST(Spurious, InjectionPreservesOrderAndCount) {
  Rng gen_rng(6);
  std::vector<net::Packet> trace;
  for (int i = 0; i < 100; ++i) {
    net::Packet p;
    p.ts_usec = static_cast<std::uint64_t>(i) * 1000;
    p.data.assign(60, 0);
    trace.push_back(std::move(p));
  }
  Rng rng(7);
  auto inserted = inject_spurious(trace, 0.20, rng);
  EXPECT_NEAR(static_cast<double>(inserted.size()), 25.0, 8.0);
  EXPECT_EQ(trace.size(), 100 + inserted.size());
}

/// FNV-1a over every packet's timestamp and bytes, plus its labels and
/// generator flow when the trace has them.
std::uint64_t trace_digest(const std::vector<net::Packet>& packets,
                           const std::vector<PacketLabel>& labels = {},
                           const std::vector<int>& flow_of = {}) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (const auto& p : packets) {
    mix(p.ts_usec);
    mix(p.data.size());
    for (std::uint8_t b : p.data) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
  for (const auto& l : labels) {
    mix(static_cast<std::uint64_t>(l.cls));
    mix(static_cast<std::uint64_t>(l.service));
    mix(static_cast<std::uint64_t>(l.binary));
  }
  for (int f : flow_of) mix(static_cast<std::uint64_t>(f));
  return h;
}

std::uint64_t trace_digest(const GeneratedTrace& t) {
  return trace_digest(t.packets, t.labels, t.flow_of);
}

// Pinned on the insert-per-packet injection: the traces the generators
// build, spurious packets, labels and flow ids included, must not move.
TEST(Spurious, GeneratedTraceDigestsPinned) {
  GenOptions iscx;  // the serve workloads' served capture
  iscx.seed = 7;
  iscx.flows_per_class = 60;
  iscx.spurious_fraction = 0.05;
  const GeneratedTrace a = generate_iscx_vpn(iscx);
  EXPECT_EQ(a.size(), 71272u);
  EXPECT_EQ(a.num_spurious(), 3563u);
  EXPECT_EQ(trace_digest(a), 0x1905c3fbdbe11541ull);

  GenOptions ustc;
  ustc.seed = 7;
  ustc.spurious_fraction = 0.10;
  const GeneratedTrace b = generate_ustc_tfc(ustc);
  EXPECT_EQ(b.size(), 15350u);
  EXPECT_EQ(b.num_spurious(), 1535u);
  EXPECT_EQ(trace_digest(b), 0x540994e7000f8ee0ull);

  const GeneratedTrace c = generate_backbone(7, 200);
  EXPECT_EQ(c.size(), 9190u);
  EXPECT_EQ(c.num_spurious(), 551u);
  EXPECT_EQ(trace_digest(c), 0x442cfe04ba066cebull);
}

// Eleven draws over eight positions must repeat some: a later draw at a
// repeated position lands before the earlier one, and both take the
// timestamp of the packet they precede.
TEST(Spurious, InjectionPositionsPinnedWhereTheyRepeat) {
  std::vector<net::Packet> trace;
  for (int i = 0; i < 8; ++i) {
    net::Packet p;
    p.ts_usec = static_cast<std::uint64_t>(i) * 1000 + 17;
    p.data.assign(60, static_cast<std::uint8_t>(i));
    trace.push_back(std::move(p));
  }
  Rng rng(3);
  const auto positions = inject_spurious(trace, 0.6, rng);
  EXPECT_EQ(positions, (std::vector<std::size_t>{5, 5, 4, 4, 4, 3, 2, 2, 1, 1, 0}));
  ASSERT_EQ(trace.size(), 8 + positions.size());
  EXPECT_EQ(trace_digest(trace), 0xe209f89df816f473ull);
}

}  // namespace
}  // namespace sugar::trafficgen
