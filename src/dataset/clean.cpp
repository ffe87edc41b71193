#include "dataset/clean.h"

#include "core/trace.h"

#include <sstream>
#include <unordered_map>

#include "net/parser.h"

namespace sugar::dataset {

std::size_t CleaningReport::removed_spurious_total() const {
  std::size_t n = 0;
  for (std::size_t i = 1; i < removed_by_category.size(); ++i)
    n += removed_by_category[i];
  return n;
}

double CleaningReport::removed_spurious_fraction() const {
  return total_packets == 0
             ? 0.0
             : static_cast<double>(removed_spurious_total()) /
                   static_cast<double>(total_packets);
}

double CleaningReport::malformed_fraction() const {
  return total_packets == 0 ? 0.0
                            : static_cast<double>(removed_malformed) /
                                  static_cast<double>(total_packets);
}

std::string CleaningReport::to_markdown() const {
  std::ostringstream os;
  os << "| Category | Removed | % |\n|---|---|---|\n";
  for (std::size_t i = 1; i < removed_by_category.size(); ++i) {
    if (removed_by_category[i] == 0) continue;
    double pct = total_packets
                     ? 100.0 * static_cast<double>(removed_by_category[i]) /
                           static_cast<double>(total_packets)
                     : 0.0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f%%", pct);
    os << "| " << net::to_string(static_cast<net::SpuriousCategory>(i)) << " | "
       << removed_by_category[i] << " | " << buf << " |\n";
  }
  if (removed_malformed > 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f%%", 100.0 * malformed_fraction());
    os << "| malformed | " << removed_malformed << " | " << buf << " |\n";
    for (std::size_t i = 0; i < malformed_by_error.size(); ++i) {
      if (malformed_by_error[i] == 0) continue;
      os << "| &nbsp;&nbsp;" << net::to_string(static_cast<net::ParseError>(i))
         << " | " << malformed_by_error[i] << " | |\n";
    }
  }
  return os.str();
}

CleaningReport clean_trace(trafficgen::GeneratedTrace& trace,
                           const CleaningOptions& opts) {
  SUGAR_TRACE_SPAN("dataset.clean_trace");
  CleaningReport report;
  report.dataset_name = trace.dataset_name;
  report.total_packets = trace.packets.size();
  SUGAR_TRACE_COUNT("clean.packets_in", trace.packets.size());
  if (core::trace::enabled()) {
    std::uint64_t bytes_in = 0;
    for (const auto& p : trace.packets) bytes_in += p.data.size();
    SUGAR_TRACE_COUNT("clean.bytes_parsed", bytes_in);
  }

  std::vector<bool> keep(trace.packets.size(), true);

  // --- Malformed-frame filter (always on: unparseable bytes can't be
  // featurized, and hiding them inside a protocol category would make
  // ingestion damage invisible in the census) and the extraneous-protocol
  // filter (the recommended one).
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    auto outcome = net::parse_packet(trace.packets[i]);
    if (!outcome.ok()) {
      keep[i] = false;
      ++report.removed_malformed;
      ++report.malformed_by_error[static_cast<std::size_t>(*outcome.error)];
      continue;
    }
    if (!opts.filter_extraneous) continue;
    net::SpuriousCategory cat = net::classify_spurious(*outcome.parsed);
    if (cat != net::SpuriousCategory::None) {
      keep[i] = false;
      ++report.removed_by_category[static_cast<std::size_t>(cat)];
    }
  }

  // --- Minimum packet size (ET-BERT-style; discouraged).
  if (opts.min_packet_bytes > 0) {
    for (std::size_t i = 0; i < trace.packets.size(); ++i) {
      if (keep[i] && trace.packets[i].data.size() < opts.min_packet_bytes) {
        keep[i] = false;
        ++report.removed_min_packet_size;
      }
    }
  }

  // --- Minimum flow length (TrafficFormer/netFound-style; discouraged).
  if (opts.min_flow_packets > 0) {
    std::unordered_map<int, std::size_t> flow_size;
    for (std::size_t i = 0; i < trace.packets.size(); ++i)
      if (keep[i] && trace.flow_of[i] >= 0) ++flow_size[trace.flow_of[i]];
    for (std::size_t i = 0; i < trace.packets.size(); ++i) {
      if (keep[i] && trace.flow_of[i] >= 0 &&
          flow_size[trace.flow_of[i]] < opts.min_flow_packets) {
        keep[i] = false;
        ++report.removed_short_flows;
      }
    }
  }

  // --- Class-support cap (ET-BERT-style; discouraged).
  if (opts.max_packets_per_class > 0) {
    std::unordered_map<int, std::size_t> class_count;
    for (std::size_t i = 0; i < trace.packets.size(); ++i) {
      if (!keep[i] || trace.labels[i].cls < 0) continue;
      std::size_t& count = class_count[trace.labels[i].cls];
      if (count < opts.max_packets_per_class) {
        ++count;
      } else {
        keep[i] = false;
        ++report.removed_class_support;
      }
    }
  }

  SUGAR_TRACE_COUNT("clean.malformed_frames", report.removed_malformed);
  SUGAR_TRACE_COUNT("clean.spurious_removed", report.removed_spurious_total());

  // --- Compact in place.
  std::size_t w = 0;
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    if (!keep[i]) continue;
    if (w != i) {
      trace.packets[w] = std::move(trace.packets[i]);
      trace.labels[w] = trace.labels[i];
      trace.flow_of[w] = trace.flow_of[i];
    }
    ++w;
  }
  trace.packets.resize(w);
  trace.labels.resize(w);
  trace.flow_of.resize(w);
  return report;
}

}  // namespace sugar::dataset
