#include "dataset/audit.h"

#include "core/trace.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace sugar::dataset {

std::string LeakageReport::to_string() const {
  std::ostringstream os;
  os << "flows straddling train/test: " << straddling_flows << "/" << total_flows
     << "; leaked test packets: " << leaked_test_packets << "/" << total_test_packets
     << "; implicit-id matches: " << implicit_id_matches
     << (clean() ? " [CLEAN]" : " [LEAKY]");
  return os.str();
}

namespace {

/// SeqNo/AckNo proximity window: all packets of one flow live within a few
/// rounds' worth of bytes of each other.
constexpr std::uint32_t kSeqWindow = 1u << 20;
/// Cap on probed test packets, keeps the audit O(n·k).
constexpr std::size_t kMaxTestProbe = 20000;

}  // namespace

LeakageReport audit_split(const PacketDataset& ds, const SplitIndices& split) {
  SUGAR_TRACE_SPAN("dataset.audit_split");
  LeakageReport report;

  // --- Explicit leak: flow membership across the boundary.
  std::unordered_set<int> train_flows, test_flows;
  for (std::size_t i : split.train) train_flows.insert(ds.flow_id[i]);
  for (std::size_t i : split.test) test_flows.insert(ds.flow_id[i]);

  std::unordered_set<int> all_flows = train_flows;
  all_flows.insert(test_flows.begin(), test_flows.end());
  report.total_flows = all_flows.size();
  for (int f : test_flows)
    if (train_flows.count(f)) ++report.straddling_flows;

  report.total_test_packets = split.test.size();
  for (std::size_t i : split.test)
    if (train_flows.count(ds.flow_id[i])) ++report.leaked_test_packets;

  // --- Implicit leak: joint (SeqNo, AckNo) proximity across the boundary.
  // Both numbers are drawn at random per flow and advance slowly, so two
  // packets agreeing on *both* within the window almost surely share a
  // flow: the two-dimensional match keeps the coincidence rate near zero
  // while catching exactly the shortcut the per-packet split exposes.
  // The audit deliberately does not consult ds.flow_id — it detects the
  // leak from wire bytes alone, as a deployed model would see it.
  // SYN packets (ack == 0) are excluded: every flow's SYN shares ack 0, so
  // two random SYNs would "match" whenever their seqs collide within the
  // window — a false positive unrelated to flow identity.
  std::unordered_map<std::uint32_t, std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      train_seq_buckets;
  for (std::size_t i : split.train) {
    const auto& p = ds.parsed[i];
    if (!p.tcp || p.tcp->seq == 0 || p.tcp->ack == 0) continue;
    train_seq_buckets[p.tcp->seq / kSeqWindow].emplace_back(p.tcp->seq,
                                                            p.tcp->ack);
  }

  auto close = [&](std::uint32_t a, std::uint32_t b) {
    std::uint32_t d = a > b ? a - b : b - a;
    return d < kSeqWindow;
  };

  std::size_t probed = 0;
  for (std::size_t i : split.test) {
    if (probed >= kMaxTestProbe) break;
    const auto& p = ds.parsed[i];
    if (!p.tcp || p.tcp->seq == 0 || p.tcp->ack == 0) continue;
    ++probed;
    std::uint32_t b = p.tcp->seq / kSeqWindow;
    bool hit = false;
    for (std::uint32_t nb : {b == 0 ? b : b - 1, b, b + 1}) {
      auto it = train_seq_buckets.find(nb);
      if (it == train_seq_buckets.end()) continue;
      for (auto [s, a] : it->second) {
        if (close(s, p.tcp->seq) && close(a, p.tcp->ack)) {
          hit = true;
          break;
        }
      }
      if (hit) break;
    }
    if (hit) ++report.implicit_id_matches;
  }
  SUGAR_TRACE_COUNT("audit.test_probes", probed);
  SUGAR_TRACE_COUNT("audit.implicit_matches", report.implicit_id_matches);
  SUGAR_TRACE_COUNT("audit.straddling_flows", report.straddling_flows);
  return report;
}

}  // namespace sugar::dataset
