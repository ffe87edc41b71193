#include <gtest/gtest.h>

#include "dataset/audit.h"
#include "dataset/transforms.h"

namespace sugar::dataset {
namespace {

PacketDataset make_ds() {
  trafficgen::GenOptions o;
  o.seed = 12;
  o.flows_per_class = 3;
  auto trace = trafficgen::generate_iscx_vpn(o);
  return make_task_dataset(trace, TaskId::VpnApp);
}

TEST(Audit, PerFlowSplitIsClean) {
  auto ds = make_ds();
  SplitOptions opts;
  opts.policy = SplitPolicy::PerFlow;
  auto split = split_dataset(ds, opts);
  auto report = audit_split(ds, split);
  EXPECT_EQ(report.straddling_flows, 0u);
  EXPECT_EQ(report.leaked_test_packets, 0u);
  EXPECT_EQ(report.implicit_id_matches, 0u);
  EXPECT_TRUE(report.clean());
  EXPECT_NE(report.to_string().find("[CLEAN]"), std::string::npos);
}

TEST(Audit, PerPacketSplitIsLeaky) {
  auto ds = make_ds();
  SplitOptions opts;
  opts.policy = SplitPolicy::PerPacket;
  auto split = split_dataset(ds, opts);
  auto report = audit_split(ds, split);
  EXPECT_GT(report.straddling_flows, 0u);
  EXPECT_GT(report.leaked_test_packets, report.total_test_packets / 2);
  // The implicit-id detector fires from wire bytes alone.
  EXPECT_GT(report.implicit_id_matches, 0u);
  EXPECT_FALSE(report.clean());
}

TEST(Audit, ImplicitDetectorSilencedByRandomization) {
  // Per-packet split + randomized SeqNo/AckNo: flows still straddle (explicit
  // leak) but the implicit-id surface is gone.
  auto ds = make_ds();
  apply_ablation(ds, AblationSpec::without_implicit_ids(), 31);
  SplitOptions opts;
  opts.policy = SplitPolicy::PerPacket;
  auto split = split_dataset(ds, opts);
  auto report = audit_split(ds, split);
  EXPECT_GT(report.straddling_flows, 0u);
  double rate = report.total_test_packets
                    ? static_cast<double>(report.implicit_id_matches) /
                          static_cast<double>(report.total_test_packets)
                    : 0.0;
  EXPECT_LT(rate, 0.05);
}

TEST(Audit, EmptySplitIsTriviallyClean) {
  auto ds = make_ds();
  SplitIndices empty;
  auto report = audit_split(ds, empty);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.total_flows, 0u);
}

// The full report on the leaky per-packet split, and on the same split with
// its test side listed 256 times over, which runs the implicit-id probe into
// its 20,000-probe cap.
TEST(Audit, PerPacketReportPinned) {
  const auto ds = make_ds();
  SplitOptions opts;
  opts.policy = SplitPolicy::PerPacket;
  const auto split = split_dataset(ds, opts);
  const auto fields = [](const LeakageReport& r) {
    return std::vector<std::size_t>{r.straddling_flows, r.total_flows,
                                    r.leaked_test_packets, r.total_test_packets,
                                    r.implicit_id_matches};
  };
  const LeakageReport once = audit_split(ds, split);
  EXPECT_EQ(fields(once), (std::vector<std::size_t>{42, 48, 417, 417, 88}));

  SplitIndices repeated{.train = split.train, .test = {}};
  for (int k = 0; k < 256; ++k)
    repeated.test.insert(repeated.test.end(), split.test.begin(), split.test.end());
  const LeakageReport capped = audit_split(ds, repeated);
  EXPECT_EQ(fields(capped),
            (std::vector<std::size_t>{42, 48, 106752, 106752, 20000}));
}

}  // namespace
}  // namespace sugar::dataset
