#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/artifact.h"
#include "dataset/advanced_split.h"

namespace sugar::dataset {
namespace {

PacketDataset make_ds(std::uint64_t seed = 9) {
  trafficgen::GenOptions o;
  o.seed = seed;
  o.flows_per_class = 4;
  auto trace = trafficgen::generate_iscx_vpn(o);
  return make_task_dataset(trace, TaskId::VpnApp);
}

class AdvancedSplitProperties
    : public ::testing::TestWithParam<AdvancedSplitPolicy> {};

TEST_P(AdvancedSplitProperties, FlowConsistentAndComplete) {
  auto ds = make_ds();
  AdvancedSplitOptions opts;
  opts.policy = GetParam();
  auto split = advanced_split(ds, opts);

  // Covers everything exactly once.
  EXPECT_EQ(split.train.size() + split.test.size(), ds.size());
  std::set<std::size_t> all(split.train.begin(), split.train.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), ds.size());

  // Flow-consistency: the advanced policies subsume per-flow.
  std::unordered_set<int> train_flows, test_flows;
  for (auto i : split.train) train_flows.insert(ds.flow_id[i]);
  for (auto i : split.test) test_flows.insert(ds.flow_id[i]);
  for (int f : test_flows) EXPECT_EQ(train_flows.count(f), 0u);

  EXPECT_GT(split.train.size(), split.test.size());
}

INSTANTIATE_TEST_SUITE_P(Policies, AdvancedSplitProperties,
                         ::testing::Values(AdvancedSplitPolicy::PerClient,
                                           AdvancedSplitPolicy::PerTime,
                                           AdvancedSplitPolicy::PerSession),
                         [](const auto& info) {
                           std::string n = to_string(info.param);
                           for (auto& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

TEST(AdvancedSplit, PerClientKeepsClientsWhole) {
  auto ds = make_ds();
  AdvancedSplitOptions opts;
  opts.policy = AdvancedSplitPolicy::PerClient;
  auto split = advanced_split(ds, opts);

  auto flows = ds.flows();
  std::unordered_map<int, bool> flow_in_train;
  for (auto i : split.train) flow_in_train[ds.flow_id[i]] = true;
  for (auto i : split.test) flow_in_train.emplace(ds.flow_id[i], false);

  std::map<std::string, std::set<bool>> client_sides;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    if (flows[f].empty()) continue;
    auto client = flow_client(ds, flows[f]).to_string();
    client_sides[client].insert(flow_in_train[static_cast<int>(f)]);
  }
  for (const auto& [client, sides] : client_sides)
    EXPECT_EQ(sides.size(), 1u) << "client " << client << " straddles the split";
}

TEST(AdvancedSplit, PerTimeIsChronological) {
  auto ds = make_ds();
  AdvancedSplitOptions opts;
  opts.policy = AdvancedSplitPolicy::PerTime;
  auto split = advanced_split(ds, opts);

  // Flow start times: max over train <= min over test.
  auto flows = ds.flows();
  auto flow_start = [&](int fid) {
    std::uint64_t start = UINT64_MAX;
    for (std::size_t i : flows[static_cast<std::size_t>(fid)])
      start = std::min(start, ds.packets[i].ts_usec);
    return start;
  };
  std::uint64_t max_train = 0, min_test = UINT64_MAX;
  std::unordered_set<int> seen_train, seen_test;
  for (auto i : split.train)
    if (seen_train.insert(ds.flow_id[i]).second)
      max_train = std::max(max_train, flow_start(ds.flow_id[i]));
  for (auto i : split.test)
    if (seen_test.insert(ds.flow_id[i]).second)
      min_test = std::min(min_test, flow_start(ds.flow_id[i]));
  EXPECT_LE(max_train, min_test);
}

TEST(AdvancedSplit, PerSessionAssignsBlocks) {
  auto ds = make_ds();
  AdvancedSplitOptions opts;
  opts.policy = AdvancedSplitPolicy::PerSession;
  opts.sessions = 6;
  auto split = advanced_split(ds, opts);
  EXPECT_GT(split.test.size(), 0u);
  EXPECT_GT(split.train.size(), 0u);
}

TEST(AdvancedSplit, DeterministicForSeed) {
  auto ds = make_ds();
  AdvancedSplitOptions opts;
  opts.policy = AdvancedSplitPolicy::PerClient;
  opts.seed = 5;
  auto a = advanced_split(ds, opts);
  auto b = advanced_split(ds, opts);
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.test, b.test);
}

// Index digests (train indices, then test indices) of every policy under
// default options.
TEST(AdvancedSplit, IndexDigestsPinnedPerPolicy) {
  const auto ds = make_ds();
  const std::pair<AdvancedSplitPolicy, std::uint64_t> pins[] = {
      {AdvancedSplitPolicy::PerClient, 0x834a1a3361e4f911ull},
      {AdvancedSplitPolicy::PerTime, 0x288be3cd9c62c6adull},
      {AdvancedSplitPolicy::PerSession, 0xbf15aa38c5434d65ull},
  };
  for (const auto& [policy, digest] : pins) {
    AdvancedSplitOptions opts;
    opts.policy = policy;
    const SplitIndices split = advanced_split(ds, opts);
    std::string bytes;
    for (const auto* side : {&split.train, &split.test})
      bytes.append(reinterpret_cast<const char*>(side->data()),
                   side->size() * sizeof(std::size_t));
    EXPECT_EQ(core::fnv1a64(bytes), digest) << to_string(policy);
  }
}

}  // namespace
}  // namespace sugar::dataset
