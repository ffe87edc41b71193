// Scenario-diversity knobs layered over the base dataset builders: epoch-
// parameterized distribution drift, a second capture "family" with different
// addressing/MTU/stack fingerprints, QUIC/UDP-encrypted and DoH-shaped flow
// reshaping, and a heavy class-imbalance knob. A default-constructed
// TraceVariant is the identity: generation draws the exact same random
// stream and produces byte-identical traces, so every existing digest and
// golden artifact is unaffected.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trafficgen/profiles.h"

namespace sugar::trafficgen {

/// A parameterized variant of one of the synthetic datasets. Family 0 is
/// the native testbed; family 1 re-hosts the same applications on a second
/// capture network (different server subnets, a PPPoE-sized MTU, a swapped
/// client/server OS mix, operator DSCP marking). Drift epoch 0 is "capture
/// time"; epoch N shifts every profile's header statistics N steps.
struct TraceVariant {
  int drift_epoch = 0;
  int family = 0;               // 0 = native testbed, 1 = re-hosted capture
  double quic_fraction = 0.0;   // share of flows carried over QUIC-like UDP/443
  double doh_fraction = 0.0;    // share of flows reshaped as DoH resolver sessions
  double imbalance_gamma = 1.0; // class k keeps ~gamma^k of its flows

  /// True iff this variant is the identity transform (legacy generation).
  [[nodiscard]] bool is_default() const;

  /// Canonical short string for cache/journal keys; "default" for the
  /// identity so default fingerprints are stable across versions.
  [[nodiscard]] std::string tag() const;
};

inline bool operator==(const TraceVariant& a, const TraceVariant& b) {
  return a.tag() == b.tag();
}

/// Profile after `epoch` compounded drift steps (identity at epoch <= 0).
/// Each epoch lowers the server TTL by 6 and the MSS by 24, scales the
/// server window by 1.18 and inter-arrival gaps by 1.35, and adds 0.12 to
/// the response-size lognormal mu, so the distributions move monotonically
/// over simulated time.
AppProfile drift_profile(const AppProfile& base, int epoch);

/// Profile re-hosted on the given family's capture network (identity at
/// family 0). Deterministic pure function of the base profile.
AppProfile family_profile(const AppProfile& base, int family);

/// Profile reshaped as a QUIC-like UDP/443 flow: same session dynamics,
/// UDP transport with long/short-header QUIC framing instead of TLS/TCP.
AppProfile quic_profile(const AppProfile& base);

/// Profile reshaped as a DoH-style resolver session: TCP/443 to a shared
/// resolver pool, many small DNS-sized TLS records, more rounds.
AppProfile doh_profile(const AppProfile& base);

/// Applies family + drift to every profile (identity for the default
/// variant — the vector is returned untouched).
std::vector<AppProfile> apply_variant(std::vector<AppProfile> profiles,
                                      const TraceVariant& v);

/// Flows generated for class `class_id` under the imbalance knob:
/// max(1, round(base * gamma^class_id)); `base` unchanged at gamma 1.
std::size_t variant_class_flows(std::size_t base, int class_id, double gamma);

}  // namespace sugar::trafficgen
