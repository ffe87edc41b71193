#include "trafficgen/variant.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sugar::trafficgen {
namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// Per-epoch drift steps; epoch N applies each N times.
constexpr double kTtlStep = -6.0;      // additive on server_ttl
constexpr double kWindowScale = 1.18;  // multiplicative on server_window
constexpr double kMssStep = -24.0;     // additive on mss
constexpr double kGapScale = 1.35;     // multiplicative on gap_ms (IAT)
constexpr double kRespMuStep = 0.12;   // additive on resp_mu (lognormal)

template <typename T>
T clamp_round(double v, T lo, T hi) {
  double r = std::llround(std::clamp(v, static_cast<double>(lo), static_cast<double>(hi)));
  return static_cast<T>(r);
}

}  // namespace

bool TraceVariant::is_default() const {
  return family == 0 && drift_epoch == 0 && quic_fraction <= 0 &&
         doh_fraction <= 0 && imbalance_gamma == 1.0;
}

std::string TraceVariant::tag() const {
  if (is_default()) return "default";
  std::string out = "fam" + std::to_string(family) + ".e" + std::to_string(drift_epoch);
  if (drift_epoch > 0) {
    out += ".d" + fmt_double(kTtlStep) + "_" + fmt_double(kWindowScale) + "_" +
           fmt_double(kMssStep) + "_" + fmt_double(kGapScale) + "_" +
           fmt_double(kRespMuStep);
  }
  out += ".q" + fmt_double(quic_fraction) + ".h" + fmt_double(doh_fraction) + ".g" +
         fmt_double(imbalance_gamma);
  return out;
}

AppProfile drift_profile(const AppProfile& base, int epoch) {
  if (epoch <= 0) return base;
  AppProfile p = base;
  double e = epoch;
  p.server_ttl = clamp_round<std::uint8_t>(base.server_ttl + kTtlStep * e, 8, 255);
  p.server_window = clamp_round<std::uint16_t>(
      base.server_window * std::pow(kWindowScale, e), 1024, 65535);
  p.mss = clamp_round<std::uint16_t>(base.mss + kMssStep * e, 536, 1460);
  p.gap_ms = base.gap_ms * std::pow(kGapScale, e);
  p.resp_mu = base.resp_mu + kRespMuStep * e;
  return p;
}

AppProfile family_profile(const AppProfile& base, int family) {
  if (family == 0) return base;
  AppProfile p = base;
  // Same applications, re-hosted: the server /24 moves to a disjoint
  // provider range (deterministic remap of the class subnet), the
  // operator marks everything AF11, and CDN offload is heavier.
  p.subnet_a = static_cast<std::uint8_t>(
      52 + (base.subnet_a * 31 + base.subnet_c * 7 + base.class_id) % 140);
  p.subnet_b = static_cast<std::uint8_t>((base.subnet_b * 17 + 3) % 250);
  p.tos = static_cast<std::uint8_t>(base.tos | 0x28);
  p.cdn_prob = std::min(1.0, base.cdn_prob + 0.15);
  // Swapped server-stack fingerprint pools: Linux-heavy becomes
  // BSD/Windows-heavy and vice versa.
  p.server_ttl = base.server_ttl == 64 ? 255 : base.server_ttl == 128 ? 64 : 128;
  p.server_window = static_cast<std::uint16_t>(
      0x8000 + (base.server_window >> 2));
  // PPPoE access network: 1492-byte MTU caps MSS and UDP datagrams.
  p.mss = static_cast<std::uint16_t>(std::min<int>(base.mss, 1452));
  p.udp_payload_cap = 1392;
  // Windows-heavy client population on a 172.20/16 enterprise net.
  p.client_subnet_a = 172;
  p.client_subnet_b = 20;
  p.client_ttl_hi = 128;
  p.client_ttl_lo = 64;
  p.client_window = 0xFFFF;
  return p;
}

AppProfile quic_profile(const AppProfile& base) {
  AppProfile p = base;
  p.use_tcp = false;
  p.server_ports = {443};
  p.payload = PayloadKind::QuicLike;
  p.tls_handshake = false;
  // Keep datagrams below the QUIC-typical 1350-byte ceiling.
  p.udp_payload_cap = std::min<std::uint16_t>(p.udp_payload_cap, 1350);
  return p;
}

AppProfile doh_profile(const AppProfile& base) {
  AppProfile p = base;
  p.use_tcp = true;
  p.server_ports = {443};
  p.payload = PayloadKind::DohLike;
  p.tls_handshake = true;
  p.sni = "doh.resolver.example";
  // Shared public-resolver pool: addressing carries no class signal.
  p.subnet_a = 9;
  p.subnet_b = 9;
  p.subnet_c = 9;
  p.cdn_prob = 0.0;
  // DNS-sized messages, chatty sessions.
  p.req_mu = 4.0;
  p.req_sigma = 0.3;
  p.resp_mu = 4.8;
  p.resp_sigma = 0.5;
  p.mean_rounds = std::max(4.0, base.mean_rounds);
  p.gap_ms = std::min(base.gap_ms, 120.0);
  return p;
}

std::vector<AppProfile> apply_variant(std::vector<AppProfile> profiles,
                                      const TraceVariant& v) {
  if (v.family == 0 && v.drift_epoch <= 0) return profiles;
  for (auto& p : profiles) {
    if (v.family != 0) p = family_profile(p, v.family);
    if (v.drift_epoch > 0) p = drift_profile(p, v.drift_epoch);
  }
  return profiles;
}

std::size_t variant_class_flows(std::size_t base, int class_id, double gamma) {
  if (gamma == 1.0) return base;
  double n = static_cast<double>(base) * std::pow(gamma, class_id);
  return static_cast<std::size_t>(std::max<long long>(1, std::llround(n)));
}

}  // namespace sugar::trafficgen
