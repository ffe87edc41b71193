// The cleaning pipeline of Section 4.1. The extraneous-protocol filter is
// the one the paper endorses; minimum-size and class-support filters are
// implemented faithfully to the surveyed papers *so the benchmark can show
// what they distort* — the pipeline reports exactly what each filter
// removed (Table 13).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "net/parser.h"
#include "net/proto.h"
#include "trafficgen/datasets.h"

namespace sugar::dataset {

/// Per-category removal census (Table 13) plus totals. Malformed frames —
/// bytes the parser rejects outright — are counted separately from the
/// spurious-protocol taxonomy so ingestion damage is never silently folded
/// into a protocol category.
struct CleaningReport {
  std::string dataset_name;
  std::size_t total_packets = 0;
  std::array<std::size_t, static_cast<std::size_t>(net::SpuriousCategory::kCount)>
      removed_by_category{};
  std::size_t removed_min_packet_size = 0;
  std::size_t removed_short_flows = 0;
  std::size_t removed_class_support = 0;
  /// Frames parse_packet rejected, bucketed by ParseError.
  std::size_t removed_malformed = 0;
  std::array<std::size_t, net::kParseErrorCount> malformed_by_error{};

  [[nodiscard]] std::size_t removed_spurious_total() const;
  [[nodiscard]] double removed_spurious_fraction() const;
  [[nodiscard]] double malformed_fraction() const;
  [[nodiscard]] std::string to_markdown() const;
};

struct CleaningOptions {
  /// The paper's recommended filter: drop all Table-13 protocols.
  bool filter_extraneous = true;

  /// ET-BERT-style: drop packets shorter than this many bytes (0 = off).
  /// Kept for ablation; the paper recommends NOT using it.
  std::size_t min_packet_bytes = 0;

  /// TrafficFormer/netFound-style: drop flows with fewer packets than this
  /// (0 = off). Kept for ablation; the paper recommends NOT using it.
  std::size_t min_flow_packets = 0;

  /// ET-BERT-style class-support cap (0 = off). Kept for ablation.
  std::size_t max_packets_per_class = 0;
};

/// Applies the filters in place on a generated trace (packets, labels and
/// flow ids stay parallel) and returns the census of removals.
CleaningReport clean_trace(trafficgen::GeneratedTrace& trace,
                           const CleaningOptions& opts);

}  // namespace sugar::dataset
