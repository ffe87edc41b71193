// Property tests for the scenario-diversity variant layer: the default
// variant is a byte-level identity, non-default generation is
// bit-reproducible regardless of the compute-pool width, drift moves the
// header statistics monotonically in the configured direction, the
// imbalance knob hits its per-class counts exactly, and the QUIC/DoH
// reshapes produce parseable frames of the advertised shape.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/threadpool.h"
#include "net/parser.h"
#include "trafficgen/datasets.h"
#include "trafficgen/variant.h"

namespace sugar::trafficgen {
namespace {

GenOptions small_opts(std::uint64_t seed = 11) {
  GenOptions o;
  o.seed = seed;
  o.flows_per_class = 2;
  return o;
}

/// FNV-1a over every packet's bytes and timestamp — a cheap whole-trace
/// digest for bit-identity assertions.
std::uint64_t trace_digest(const GeneratedTrace& t) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  for (std::size_t i = 0; i < t.size(); ++i) {
    mix(t.packets[i].ts_usec);
    for (std::uint8_t b : t.packets[i].data) {
      h ^= b;
      h *= 1099511628211ull;
    }
    mix(static_cast<std::uint64_t>(t.flow_of[i] + 1));
  }
  return h;
}

struct HeaderStats {
  double mean_ttl = 0;
  double mean_window = 0;
  double mean_flow_duration_us = 0;
};

HeaderStats observe(const GeneratedTrace& t) {
  HeaderStats s;
  std::size_t n_ip = 0, n_tcp = 0;
  std::map<int, std::pair<std::uint64_t, std::uint64_t>> flow_span;
  for (std::size_t i = 0; i < t.size(); ++i) {
    auto outcome = net::parse_packet(t.packets[i]);
    if (!outcome.ok()) continue;
    if (outcome.parsed->ipv4) {
      s.mean_ttl += outcome.parsed->ipv4->ttl;
      ++n_ip;
    }
    if (outcome.parsed->tcp) {
      s.mean_window += outcome.parsed->tcp->window;
      ++n_tcp;
    }
    if (t.flow_of[i] >= 0) {
      auto [it, inserted] = flow_span.emplace(
          t.flow_of[i], std::make_pair(t.packets[i].ts_usec, t.packets[i].ts_usec));
      if (!inserted) {
        it->second.first = std::min(it->second.first, t.packets[i].ts_usec);
        it->second.second = std::max(it->second.second, t.packets[i].ts_usec);
      }
    }
  }
  if (n_ip) s.mean_ttl /= static_cast<double>(n_ip);
  if (n_tcp) s.mean_window /= static_cast<double>(n_tcp);
  for (const auto& [flow, span] : flow_span)
    s.mean_flow_duration_us += static_cast<double>(span.second - span.first);
  if (!flow_span.empty())
    s.mean_flow_duration_us /= static_cast<double>(flow_span.size());
  return s;
}

TEST(Drift, DefaultVariantIsByteIdentity) {
  GenOptions plain = small_opts(23);
  GenOptions with_variant = small_opts(23);
  with_variant.variant = TraceVariant{};  // explicit identity
  EXPECT_TRUE(with_variant.variant.is_default());
  EXPECT_EQ(with_variant.variant.tag(), "default");

  auto a = generate_iscx_vpn(plain);
  auto b = generate_iscx_vpn(with_variant);
  EXPECT_EQ(trace_digest(a), trace_digest(b));
}

TEST(Drift, DigestStableAcrossPoolWidths) {
  TraceVariant v;
  v.drift_epoch = 2;
  v.quic_fraction = 0.25;
  GenOptions o = small_opts(31);
  o.variant = v;

  const std::size_t restore = core::threads_from_env();
  std::set<std::uint64_t> iscx, ustc;
  for (std::size_t threads : {1u, 2u, 7u}) {
    core::set_global_threads(threads);
    iscx.insert(trace_digest(generate_iscx_vpn(o)));
    ustc.insert(trace_digest(generate_ustc_tfc(o)));
  }
  core::set_global_threads(restore);
  EXPECT_EQ(iscx.size(), 1u) << "iscx digest varies with pool width";
  EXPECT_EQ(ustc.size(), 1u) << "ustc digest varies with pool width";
}

TEST(Drift, DifferentSeedsAndEpochsDiffer) {
  TraceVariant v;
  v.drift_epoch = 1;
  GenOptions a = small_opts(41);
  a.variant = v;
  GenOptions b = small_opts(42);
  b.variant = v;
  EXPECT_NE(trace_digest(generate_ustc_tfc(a)), trace_digest(generate_ustc_tfc(b)));

  GenOptions c = small_opts(41);
  c.variant = v;
  c.variant.drift_epoch = 2;
  EXPECT_NE(trace_digest(generate_ustc_tfc(a)), trace_digest(generate_ustc_tfc(c)));
}

TEST(Drift, HeaderStatsShiftMonotonically) {
  // Each drift epoch decays TTL, grows the TCP window and stretches
  // inter-arrival gaps; observed per-trace means must follow.
  GenOptions o = small_opts(7);
  o.flows_per_class = 3;
  std::vector<HeaderStats> stats;
  for (int epoch : {0, 2, 4}) {
    GenOptions e = o;
    e.variant.drift_epoch = epoch;
    stats.push_back(observe(generate_ustc_tfc(e)));
  }
  for (std::size_t i = 1; i < stats.size(); ++i) {
    EXPECT_LT(stats[i].mean_ttl, stats[i - 1].mean_ttl)
        << "TTL mean did not decay at step " << i;
    EXPECT_GT(stats[i].mean_window, stats[i - 1].mean_window)
        << "window mean did not grow at step " << i;
    EXPECT_GT(stats[i].mean_flow_duration_us, stats[i - 1].mean_flow_duration_us)
        << "flow duration did not stretch at step " << i;
  }
}

TEST(Drift, ImbalanceCountsAreExact) {
  EXPECT_EQ(variant_class_flows(40, 0, 1.0), 40u);
  EXPECT_EQ(variant_class_flows(40, 3, 1.0), 40u);
  EXPECT_EQ(variant_class_flows(40, 0, 0.7), 40u);
  EXPECT_EQ(variant_class_flows(40, 1, 0.7), 28u);
  EXPECT_EQ(variant_class_flows(40, 2, 0.7), 20u);  // llround(19.6)
  EXPECT_EQ(variant_class_flows(40, 10, 0.1), 1u);  // floor at one flow

  // The generator must hit those counts exactly: distinct flow ids per
  // class equal variant_class_flows(base, class, gamma).
  GenOptions o = small_opts(13);
  o.flows_per_class = 4;
  o.variant.imbalance_gamma = 0.6;
  auto trace = generate_ustc_tfc(o);
  std::map<int, std::set<int>> flows_of_class;
  for (std::size_t i = 0; i < trace.size(); ++i)
    if (trace.flow_of[i] >= 0 && trace.labels[i].cls >= 0)
      flows_of_class[trace.labels[i].cls].insert(trace.flow_of[i]);
  ASSERT_FALSE(flows_of_class.empty());
  for (const auto& [cls, flows] : flows_of_class)
    EXPECT_EQ(flows.size(), variant_class_flows(4, cls, 0.6))
        << "class " << cls << " flow count off";
  // Head class strictly larger than the tail.
  EXPECT_GT(flows_of_class.begin()->second.size(),
            flows_of_class.rbegin()->second.size());
}

TEST(Drift, FamilyChangesStackFingerprint) {
  GenOptions a = small_opts(19);
  GenOptions b = small_opts(19);
  b.variant.family = 1;
  auto fam_a = generate_ustc_tfc(a);
  auto fam_b = generate_ustc_tfc(b);
  EXPECT_NE(trace_digest(fam_a), trace_digest(fam_b));

  // Same label space: the families re-parameterize the stack, not the task.
  auto classes = [](const GeneratedTrace& t) {
    std::set<int> cls;
    for (const auto& l : t.labels)
      if (l.cls >= 0) cls.insert(l.cls);
    return cls;
  };
  EXPECT_EQ(classes(fam_a), classes(fam_b));

  // Family B swaps the canonical 64-TTL server stacks to 255, so the
  // observed TTL distribution must move.
  auto sa = observe(fam_a);
  auto sb = observe(fam_b);
  EXPECT_NE(sa.mean_ttl, sb.mean_ttl);
}

TEST(Drift, QuicReshapeEmitsUdp443) {
  GenOptions o = small_opts(29);
  o.variant.quic_fraction = 1.0;
  auto trace = generate_ustc_tfc(o);
  std::size_t labeled = 0, udp443 = 0, quic_bit = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.flow_of[i] < 0) continue;
    ++labeled;
    auto outcome = net::parse_packet(trace.packets[i]);
    ASSERT_TRUE(outcome.ok());
    if (!outcome.parsed->udp) continue;
    if (outcome.parsed->udp->src_port == 443 || outcome.parsed->udp->dst_port == 443)
      ++udp443;
    auto payload = outcome.parsed->payload_view(trace.packets[i]);
    // QUIC header form bit (0x40) is set in both long and short headers.
    if (!payload.empty() && (payload[0] & 0x40)) ++quic_bit;
  }
  ASSERT_GT(labeled, 0u);
  EXPECT_GT(udp443, labeled / 2) << "QUIC reshape should dominate the trace";
  EXPECT_GT(quic_bit, 0u);
}

TEST(Drift, DohReshapeEmitsTls443Records) {
  GenOptions o = small_opts(37);
  o.variant.doh_fraction = 1.0;
  auto trace = generate_iscx_vpn(o);
  std::size_t tcp443 = 0, app_records = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace.flow_of[i] < 0) continue;
    auto outcome = net::parse_packet(trace.packets[i]);
    ASSERT_TRUE(outcome.ok());
    if (!outcome.parsed->tcp) continue;
    if (outcome.parsed->tcp->src_port == 443 || outcome.parsed->tcp->dst_port == 443)
      ++tcp443;
    auto payload = outcome.parsed->payload_view(trace.packets[i]);
    if (payload.size() >= 5 && payload[0] == 0x17 && payload[1] == 0x03 &&
        payload[2] == 0x03)
      ++app_records;
  }
  EXPECT_GT(tcp443, 0u);
  EXPECT_GT(app_records, 0u) << "DoH flows must carry TLS application records";
}

TEST(Drift, VariantTagIsCanonical) {
  TraceVariant v;
  EXPECT_EQ(v.tag(), "default");
  v.drift_epoch = 3;
  EXPECT_FALSE(v.is_default());
  TraceVariant w = v;
  EXPECT_TRUE(v == w);
  w.quic_fraction = 0.5;
  EXPECT_FALSE(v == w);
  EXPECT_NE(v.tag(), w.tag());
  TraceVariant fam;
  fam.family = 1;
  EXPECT_NE(fam.tag(), v.tag());
  EXPECT_NE(fam.tag(), "default");
}

}  // namespace
}  // namespace sugar::trafficgen
