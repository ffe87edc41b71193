// Advanced splitting policies the paper names but leaves as future work
// (§4.1): per-client, per-time and per-session splits. Each stresses a
// different generalization axis — to unseen hosts, to later traffic, and to
// whole capture sessions. All are flow-consistent (they subsume the
// per-flow guarantee) and are therefore drop-in upgrades of the honest
// split.
#pragma once

#include "dataset/split.h"

namespace sugar::dataset {

enum class AdvancedSplitPolicy {
  PerClient,   // all flows of one client IP land on one side
  PerTime,     // train on the earliest traffic, test on the latest
  PerSession,  // contiguous capture windows assigned as blocks
};

std::string to_string(AdvancedSplitPolicy p);

struct AdvancedSplitOptions {
  AdvancedSplitPolicy policy = AdvancedSplitPolicy::PerClient;
  std::uint64_t seed = 7;
  /// PerSession: number of contiguous time windows the capture is cut into.
  int sessions = 8;
};

/// Splits a dataset under the chosen advanced policy. All policies keep
/// flows whole; PerTime additionally guarantees max(train ts) <= min(test
/// ts) at flow granularity (by flow start time).
SplitIndices advanced_split(const PacketDataset& ds,
                            const AdvancedSplitOptions& opts);

/// Client identity of a flow: the endpoint inside the capture's client
/// subnets (192.168/16 or 10/8); falls back to the lexicographically
/// smaller endpoint when neither side is private.
net::IpAddress flow_client(const PacketDataset& ds, const std::vector<std::size_t>& flow);

}  // namespace sugar::dataset
