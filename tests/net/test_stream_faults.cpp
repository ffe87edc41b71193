// Streaming sequence faults (net::FaultInjector::mutate_sequence): each
// delivery-fault mode must damage the stream in exactly the advertised way
// — reordering permutes, duplication only adds copies, mid-flow truncation
// only removes flow suffixes — and a (seed, input) pair must always produce
// the same mutant so fuzz findings replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "net/fault.h"
#include "net/flow.h"
#include "net/parser.h"
#include "trafficgen/datasets.h"

namespace sugar::net {
namespace {

std::vector<Packet> sample_stream() {
  trafficgen::GenOptions opts;
  opts.seed = 77;
  opts.flows_per_class = 2;
  opts.spurious_fraction = 0.05;  // some keyless packets in the mix
  return trafficgen::generate_iscx_vpn(opts).packets;
}

std::string frame_bytes(const Packet& p) {
  return std::string(reinterpret_cast<const char*>(p.data.data()), p.data.size());
}

/// Frame-content multiset (timestamps excluded: reordering keeps them).
std::multiset<std::string> frame_multiset(const std::vector<Packet>& pkts) {
  std::multiset<std::string> out;
  for (const auto& p : pkts) out.insert(frame_bytes(p));
  return out;
}

TEST(StreamFaults, ReorderPreservesPacketMultiset) {
  const auto stream = sample_stream();
  FaultInjector inj(1);
  auto mutated = inj.mutate_sequence(stream, SequenceFault::ReorderWindow);
  ASSERT_EQ(mutated.size(), stream.size());
  EXPECT_EQ(frame_multiset(mutated), frame_multiset(stream));
  // A window shuffle over a real trace must actually move something.
  bool moved = false;
  for (std::size_t i = 0; i < stream.size(); ++i)
    if (frame_bytes(mutated[i]) != frame_bytes(stream[i])) moved = true;
  EXPECT_TRUE(moved);
}

TEST(StreamFaults, ReorderStaysInsideWindow) {
  const auto stream = sample_stream();
  SequenceFaultOptions opt;
  opt.reorder_window = 4;
  FaultInjector inj(2);
  auto mutated = inj.mutate_sequence(stream, SequenceFault::ReorderWindow, opt);
  ASSERT_EQ(mutated.size(), stream.size());
  // Window w covers [w*4, w*4+4): each window's contents must match the
  // original window as a multiset.
  for (std::size_t base = 0; base < stream.size(); base += opt.reorder_window) {
    const std::size_t end = std::min(stream.size(), base + opt.reorder_window);
    std::multiset<std::string> got, want;
    for (std::size_t i = base; i < end; ++i) {
      got.insert(frame_bytes(mutated[i]));
      want.insert(frame_bytes(stream[i]));
    }
    EXPECT_EQ(got, want) << "window at " << base;
  }
}

TEST(StreamFaults, DuplicateOnlyAddsCopies) {
  const auto stream = sample_stream();
  SequenceFaultOptions opt;
  opt.duplicate_fraction = 0.2;
  FaultInjector inj(3);
  auto mutated = inj.mutate_sequence(stream, SequenceFault::DuplicateDelivery, opt);
  EXPECT_GT(mutated.size(), stream.size());
  // Every original frame still present, and every mutant frame existed in
  // the original — duplication adds, never invents or removes.
  auto orig = frame_multiset(stream);
  for (const auto& p : mutated)
    EXPECT_TRUE(orig.count(frame_bytes(p)) > 0);
  auto got = frame_multiset(mutated);
  for (const auto& f : orig) EXPECT_TRUE(got.count(f) >= orig.count(f));
}

TEST(StreamFaults, DuplicateCountTracksFraction) {
  const auto stream = sample_stream();
  SequenceFaultOptions opt;
  opt.duplicate_fraction = 0.25;
  FaultInjector inj(4);
  auto mutated = inj.mutate_sequence(stream, SequenceFault::DuplicateDelivery, opt);
  const double extra = static_cast<double>(mutated.size() - stream.size()) /
                       static_cast<double>(stream.size());
  // Bernoulli(0.25) per packet over a few thousand packets: generous bounds.
  EXPECT_GT(extra, 0.1);
  EXPECT_LT(extra, 0.4);
}

TEST(StreamFaults, TruncateCutsFlowSuffixesOnly) {
  const auto stream = sample_stream();
  SequenceFaultOptions opt;
  opt.truncate_flow_fraction = 0.6;
  FaultInjector inj(5);
  auto mutated = inj.mutate_sequence(stream, SequenceFault::TruncateMidFlow, opt);
  ASSERT_LT(mutated.size(), stream.size());

  // Group both streams by flow key: every mutated flow must be a prefix of
  // the original flow's packet sequence.
  auto group = [](const std::vector<Packet>& pkts) {
    std::map<std::string, std::vector<std::string>> flows;
    std::vector<std::string> keyless;
    for (const auto& p : pkts) {
      auto parsed = parse_packet(p);
      FlowKey key;
      bool fwd = false;
      if (parsed.ok() && FlowKey::from_parsed(*parsed.parsed, key, fwd)) {
        std::string id(reinterpret_cast<const char*>(&key), sizeof key);
        flows[id].push_back(
            std::string(reinterpret_cast<const char*>(p.data.data()),
                        p.data.size()));
      } else {
        keyless.push_back(
            std::string(reinterpret_cast<const char*>(p.data.data()),
                        p.data.size()));
      }
    }
    return std::make_pair(flows, keyless);
  };
  auto [orig_flows, orig_keyless] = group(stream);
  auto [mut_flows, mut_keyless] = group(mutated);

  // Keyless packets are never dropped.
  EXPECT_EQ(mut_keyless, orig_keyless);

  std::size_t truncated = 0;
  for (const auto& [id, pkts] : orig_flows) {
    auto it = mut_flows.find(id);
    ASSERT_NE(it, mut_flows.end()) << "flow dropped entirely";
    ASSERT_LE(it->second.size(), pkts.size());
    EXPECT_GE(it->second.size(), 1u) << "a truncated flow keeps its first packet";
    for (std::size_t i = 0; i < it->second.size(); ++i)
      EXPECT_EQ(it->second[i], pkts[i]) << "not a prefix";
    if (it->second.size() < pkts.size()) ++truncated;
  }
  EXPECT_GT(truncated, 0u);
}

TEST(StreamFaults, SameSeedSameMutant) {
  const auto stream = sample_stream();
  for (auto fault : {SequenceFault::ReorderWindow,
                     SequenceFault::DuplicateDelivery,
                     SequenceFault::TruncateMidFlow}) {
    FaultInjector a(99), b(99);
    auto ma = a.mutate_sequence(stream, fault);
    auto mb = b.mutate_sequence(stream, fault);
    ASSERT_EQ(ma.size(), mb.size()) << to_string(fault);
    for (std::size_t i = 0; i < ma.size(); ++i) {
      EXPECT_EQ(ma[i].ts_usec, mb[i].ts_usec);
      EXPECT_EQ(ma[i].data, mb[i].data) << to_string(fault) << " at " << i;
    }
  }
}

TEST(StreamFaults, UniformPickerCoversEveryFault) {
  const auto stream = sample_stream();
  FaultInjector inj(7);
  for (int i = 0; i < 8; ++i) {
    auto mutated = inj.mutate_sequence(stream);
    EXPECT_FALSE(mutated.empty());
  }
}

TEST(StreamFaults, EmptyAndTinyInputsAreSafe) {
  FaultInjector inj(11);
  const std::vector<Packet> empty;
  for (auto fault : {SequenceFault::ReorderWindow,
                     SequenceFault::DuplicateDelivery,
                     SequenceFault::TruncateMidFlow}) {
    EXPECT_TRUE(inj.mutate_sequence(empty, fault).empty());
    auto one = sample_stream();
    one.resize(1);
    auto m = inj.mutate_sequence(one, fault);
    EXPECT_GE(m.size(), 1u);
  }
}

// Outputs of both sequence faults under default options: duplicates land
// one to eight slots after their original, and a truncated flow keeps at
// least its first packet.
TEST(StreamFaults, DuplicateAndTruncateOutputsPinned) {
  const auto stream = sample_stream();
  const std::pair<SequenceFault, std::uint64_t> pins[] = {
      {SequenceFault::DuplicateDelivery, 0xf82894baafa333efull},
      {SequenceFault::TruncateMidFlow, 0xe3e8b44755617348ull},
  };
  for (const auto& [fault, digest] : pins) {
    FaultInjector inj(91);
    std::string bytes;
    for (const Packet& p : inj.mutate_sequence(stream, fault)) {
      bytes += frame_bytes(p);
      bytes += std::to_string(p.ts_usec);
      bytes += '|';
    }
    EXPECT_EQ(core::fnv1a64(bytes), digest) << to_string(fault);
  }
}

}  // namespace
}  // namespace sugar::net
