#include <gtest/gtest.h>

#include <cstdlib>

#include "core/artifact.h"
#include "core/env.h"
#include "core/envparse.h"

namespace sugar::core {
namespace {

TEST(EnvConfig, ReadsScaleFromEnvironment) {
  ::setenv("SUGAR_SCALE", "0.5", 1);
  ::setenv("SUGAR_EPOCHS", "3", 1);
  ::setenv("SUGAR_SEED", "99", 1);
  auto cfg = EnvConfig::from_env();
  EnvConfig def;
  EXPECT_EQ(cfg.flows_per_class_tls, std::max<std::size_t>(2, def.flows_per_class_tls / 2));
  EXPECT_EQ(cfg.downstream_epochs, 3);
  EXPECT_EQ(cfg.seed, 99u);
  ::unsetenv("SUGAR_SCALE");
  ::unsetenv("SUGAR_EPOCHS");
  ::unsetenv("SUGAR_SEED");
}

TEST(EnvConfig, IgnoresInvalidValues) {
  ::setenv("SUGAR_SCALE", "not-a-number", 1);
  ::setenv("SUGAR_EPOCHS", "-5", 1);
  auto cfg = EnvConfig::from_env();
  EnvConfig def;
  EXPECT_EQ(cfg.flows_per_class_tls, def.flows_per_class_tls);
  EXPECT_EQ(cfg.downstream_epochs, def.downstream_epochs);
  // A non-finite scale is malformed, and one whose largest product has no
  // size_t value is out of range: no count is multiplied by either.
  for (const char* bad : {"inf", "1e30"}) {
    ::setenv("SUGAR_SCALE", bad, 1);
    cfg = EnvConfig::from_env();
    EXPECT_EQ(cfg.flows_per_class_iscx, def.flows_per_class_iscx) << bad;
    EXPECT_EQ(cfg.backbone_flows, def.backbone_flows) << bad;
    EXPECT_EQ(cfg.max_train_packets, def.max_train_packets) << bad;
    EXPECT_EQ(cfg.pretrain_max_samples, def.pretrain_max_samples) << bad;
  }
  ::unsetenv("SUGAR_SCALE");
  ::unsetenv("SUGAR_EPOCHS");
}

TEST(EnvParse, CountsAreWholeFiniteIntegersThatFit) {
  std::size_t n = 7;
  EXPECT_TRUE(parse_number("42", n));
  EXPECT_EQ(n, 42u);
  for (const char* bad : {"2.5", "1e30", "inf", "nan", "-1", "", "4x",
                          "99999999999999999999"}) {
    n = 7;
    EXPECT_FALSE(parse_number(bad, n)) << bad;
    EXPECT_EQ(n, 7u) << bad;  // untouched
  }
  double d = 1.0;
  EXPECT_TRUE(parse_number("2.5", d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  for (const char* bad : {"inf", "-inf", "nan", "1e999"}) {
    d = 1.0;
    EXPECT_FALSE(parse_number(bad, d)) << bad;
    EXPECT_DOUBLE_EQ(d, 1.0) << bad;
  }
}

TEST(EnvConfig, RejectsTrailingGarbageStrictly) {
  // atoi-style parsing would read "12" out of "12x"; the strict parser
  // refuses the whole value and keeps the default instead.
  ::setenv("SUGAR_EPOCHS", "12x", 1);
  ::setenv("SUGAR_SEED", "99abc", 1);
  ::setenv("SUGAR_SCALE", "1.5qq", 1);
  auto cfg = EnvConfig::from_env();
  EnvConfig def;
  EXPECT_EQ(cfg.downstream_epochs, def.downstream_epochs);
  EXPECT_EQ(cfg.seed, def.seed);
  EXPECT_EQ(cfg.flows_per_class_tls, def.flows_per_class_tls);
  ::unsetenv("SUGAR_EPOCHS");
  ::unsetenv("SUGAR_SEED");
  ::unsetenv("SUGAR_SCALE");
}

TEST(BenchmarkEnv, CleaningReportsPerSource) {
  EnvConfig cfg;
  cfg.flows_per_class_iscx = 3;
  cfg.flows_per_class_ustc = 3;
  cfg.flows_per_class_tls = 2;
  cfg.backbone_flows = 20;
  BenchmarkEnv env(cfg);

  const auto& iscx = env.cleaning_report(dataset::SourceDataset::IscxVpn);
  EXPECT_NEAR(iscx.removed_spurious_fraction(), cfg.iscx_spurious, 0.04);
  const auto& ustc = env.cleaning_report(dataset::SourceDataset::UstcTfc);
  EXPECT_NEAR(ustc.removed_spurious_fraction(), cfg.ustc_spurious, 0.05);
  const auto& cstn = env.cleaning_report(dataset::SourceDataset::CstnTls);
  EXPECT_EQ(cstn.removed_spurious_total(), 0u) << "CSTN ships pre-cleaned";
}

TEST(BenchmarkEnv, BackboneCachedAndUnlabeled) {
  EnvConfig cfg;
  cfg.backbone_flows = 25;
  BenchmarkEnv env(cfg);
  const auto& a = env.backbone();
  const auto& b = env.backbone();
  EXPECT_EQ(&a, &b);
  EXPECT_GT(a.size(), 100u);
  for (int l : a.label) EXPECT_EQ(l, 0);
}

// Recorded before FlowTable::add took the caller's parsed packet: every
// task dataset and the backbone keep their packet count and flow ids.
TEST(BenchmarkEnv, FlowIdDigestsPinned) {
  EnvConfig cfg;
  cfg.flows_per_class_iscx = 3;
  cfg.flows_per_class_ustc = 3;
  cfg.flows_per_class_tls = 2;
  cfg.backbone_flows = 40;
  BenchmarkEnv env(cfg);
  auto digest = [](const dataset::PacketDataset& ds) {
    return fnv1a64(std::string_view(reinterpret_cast<const char*>(ds.flow_id.data()),
                                    ds.flow_id.size() * sizeof(int)));
  };
  struct Pin {
    dataset::TaskId task;
    std::size_t packets;
    std::uint64_t flow_ids;
  };
  const Pin pins[] = {
      {dataset::TaskId::VpnBinary, 4939, 0x6fea1492367f8155ull},
      {dataset::TaskId::VpnService, 4939, 0x6fea1492367f8155ull},
      {dataset::TaskId::VpnApp, 4939, 0x6fea1492367f8155ull},
      {dataset::TaskId::UstcBinary, 2661, 0x6deb61f5eec52667ull},
      {dataset::TaskId::UstcApp, 2661, 0x6deb61f5eec52667ull},
      {dataset::TaskId::Tls120, 7743, 0x4df27b09a60f6c5bull},
  };
  for (const Pin& pin : pins) {
    const auto& ds = env.task_dataset(pin.task);
    EXPECT_EQ(ds.size(), pin.packets) << dataset::to_string(pin.task);
    EXPECT_EQ(digest(ds), pin.flow_ids) << dataset::to_string(pin.task);
  }
  const auto& backbone = env.backbone();
  // The backbone is uncleaned: its keyless packets (ARP, ICMP) join flow 0.
  EXPECT_EQ(backbone.size(), 2590u);
  EXPECT_EQ(digest(backbone), 0xcde3f4b246824f34ull);
}

TEST(BenchmarkEnv, SeedChangesData) {
  EnvConfig c1;
  c1.flows_per_class_tls = 2;
  EnvConfig c2 = c1;
  c2.seed = 2;
  BenchmarkEnv e1(c1), e2(c2);
  const auto& d1 = e1.task_dataset(dataset::TaskId::Tls120);
  const auto& d2 = e2.task_dataset(dataset::TaskId::Tls120);
  bool identical = d1.size() == d2.size();
  if (identical)
    for (std::size_t i = 0; i < d1.size() && identical; ++i)
      identical = d1.packets[i].data == d2.packets[i].data;
  EXPECT_FALSE(identical);
}

}  // namespace
}  // namespace sugar::core
