#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <unordered_set>

#include "core/artifact.h"
#include "dataset/split.h"

namespace sugar::dataset {
namespace {

PacketDataset make_ds(std::uint64_t seed = 5) {
  trafficgen::GenOptions o;
  o.seed = seed;
  o.flows_per_class = 3;
  auto trace = trafficgen::generate_iscx_vpn(o);
  return make_task_dataset(trace, TaskId::VpnApp);
}

/// Property sweep over seeds: the per-flow split must never let a flow
/// straddle the boundary, and both splits must cover every packet exactly
/// once.
class SplitProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitProperties, PerFlowNeverStraddles) {
  auto ds = make_ds();
  SplitOptions opts;
  opts.policy = SplitPolicy::PerFlow;
  opts.seed = GetParam();
  auto split = split_dataset(ds, opts);

  std::unordered_set<int> train_flows, test_flows;
  for (auto i : split.train) train_flows.insert(ds.flow_id[i]);
  for (auto i : split.test) test_flows.insert(ds.flow_id[i]);
  for (int f : test_flows) EXPECT_EQ(train_flows.count(f), 0u);

  EXPECT_EQ(split.train.size() + split.test.size(), ds.size());
  std::set<std::size_t> all(split.train.begin(), split.train.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), ds.size()) << "every packet assigned exactly once";
}

TEST_P(SplitProperties, PerPacketStraddles) {
  // The flawed policy must show the flaw: most flows straddle.
  auto ds = make_ds();
  SplitOptions opts;
  opts.policy = SplitPolicy::PerPacket;
  opts.seed = GetParam();
  auto split = split_dataset(ds, opts);

  std::unordered_set<int> train_flows, test_flows;
  for (auto i : split.train) train_flows.insert(ds.flow_id[i]);
  for (auto i : split.test) test_flows.insert(ds.flow_id[i]);
  std::size_t straddle = 0;
  for (int f : test_flows) straddle += train_flows.count(f);
  EXPECT_GT(straddle, test_flows.size() / 2);
}

TEST_P(SplitProperties, TrainFractionRespected) {
  auto ds = make_ds();
  for (auto policy : {SplitPolicy::PerPacket, SplitPolicy::PerFlow}) {
    SplitOptions opts;
    opts.policy = policy;
    opts.seed = GetParam();
    auto split = split_dataset(ds, opts);
    double frac = static_cast<double>(split.train.size()) /
                  static_cast<double>(ds.size());
    EXPECT_NEAR(frac, kTrainFraction, 0.08) << to_string(policy);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitProperties,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

TEST(Split, BalanceTrainEqualizesClasses) {
  auto ds = make_ds();
  SplitOptions opts;
  opts.policy = SplitPolicy::PerFlow;
  auto split = split_dataset(ds, opts);
  auto balanced = balance_train(ds, split.train, 3);

  std::unordered_map<int, std::size_t> per_class;
  for (auto i : balanced) ++per_class[ds.label[i]];
  std::size_t first = per_class.begin()->second;
  for (const auto& [cls, n] : per_class) EXPECT_EQ(n, first);
  EXPECT_LE(balanced.size(), split.train.size());
}

TEST(Split, StratifiedSampleKeepsProportions) {
  auto ds = make_ds();
  std::vector<std::size_t> all(ds.size());
  std::iota(all.begin(), all.end(), 0);
  auto sample = stratified_sample(ds, all, 0.25, 9);

  std::unordered_map<int, double> full_frac, samp_frac;
  for (auto i : all) full_frac[ds.label[i]] += 1.0;
  for (auto i : sample) samp_frac[ds.label[i]] += 1.0;
  for (auto& [cls, n] : full_frac) {
    double f = n / static_cast<double>(all.size());
    double s = samp_frac[cls] / static_cast<double>(sample.size());
    EXPECT_NEAR(s, f, 0.05) << "class " << cls;
  }
}

TEST(Split, CapFlowLength) {
  auto ds = make_ds();
  std::vector<std::size_t> all(ds.size());
  std::iota(all.begin(), all.end(), 0);
  auto capped = cap_flow_length(ds, all, 5, 11);
  std::unordered_map<int, std::size_t> per_flow;
  for (auto i : capped) ++per_flow[ds.flow_id[i]];
  for (const auto& [f, n] : per_flow) EXPECT_LE(n, 5u);
}

TEST(Split, KFoldFlowConsistent) {
  auto ds = make_ds();
  SplitOptions opts;
  opts.policy = SplitPolicy::PerFlow;
  auto split = split_dataset(ds, opts);
  auto folds = kfold(ds, split.train, 3, SplitPolicy::PerFlow, 13);
  ASSERT_EQ(folds.size(), 3u);

  for (const auto& fold : folds) {
    EXPECT_EQ(fold.train.size() + fold.test.size(), split.train.size());
    std::unordered_set<int> tr, va;
    for (auto i : fold.train) tr.insert(ds.flow_id[i]);
    for (auto i : fold.test) va.insert(ds.flow_id[i]);
    for (int f : va) EXPECT_EQ(tr.count(f), 0u);
  }
  // Each packet is in the validation part of exactly one fold.
  std::unordered_map<std::size_t, int> val_count;
  for (const auto& fold : folds)
    for (auto i : fold.test) ++val_count[i];
  for (auto i : split.train) EXPECT_EQ(val_count[i], 1) << "packet " << i;
}

TEST(Split, DeterministicForSeed) {
  auto ds = make_ds();
  SplitOptions opts;
  opts.policy = SplitPolicy::PerFlow;
  opts.seed = 21;
  auto a = split_dataset(ds, opts);
  auto b = split_dataset(ds, opts);
  EXPECT_EQ(a.train, b.train);
  EXPECT_EQ(a.test, b.test);
}

/// fnv1a64 over the train indices, then the test indices.
std::uint64_t split_digest(const SplitIndices& split) {
  std::string bytes;
  for (const auto* side : {&split.train, &split.test})
    bytes.append(reinterpret_cast<const char*>(side->data()),
                 side->size() * sizeof(std::size_t));
  return core::fnv1a64(bytes);
}

// Index digests of both policies under default options: the per-packet
// 7:1 cut of each class and the per-flow largest-first greedy.
TEST(Split, IndexDigestsPinned) {
  const auto ds = make_ds();
  SplitOptions opts;
  opts.policy = SplitPolicy::PerPacket;
  EXPECT_EQ(split_digest(split_dataset(ds, opts)), 0xc2843077ae522795ull) << "per-packet";
  opts.policy = SplitPolicy::PerFlow;
  EXPECT_EQ(split_digest(split_dataset(ds, opts)), 0xf198772a7ba7ca3dull) << "per-flow";
}

}  // namespace
}  // namespace sugar::dataset
