// Leakage auditor: given a train/test split, quantifies the information
// leaks the paper identifies — flows straddling the boundary (explicit
// 5-tuple leak) and near-identical implicit flow ids (SeqNo/AckNo ranges,
// TCP timestamp bases) shared across the boundary. The benchmark's
// recommended pipeline asserts a zero-leak audit before training.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/split.h"
#include "dataset/task.h"

namespace sugar::dataset {

struct LeakageReport {
  /// Flows with packets on both sides of the boundary.
  std::size_t straddling_flows = 0;
  std::size_t total_flows = 0;
  /// Test packets whose flow also appears in train.
  std::size_t leaked_test_packets = 0;
  std::size_t total_test_packets = 0;
  /// Probed test TCP packets whose SeqNo and AckNo both lie within 2^20 of
  /// some train packet's — the implicit-id shortcut surface. At most the
  /// first 20,000 eligible test packets are probed.
  std::size_t implicit_id_matches = 0;

  [[nodiscard]] bool clean() const {
    return straddling_flows == 0 && implicit_id_matches == 0;
  }
  [[nodiscard]] std::string to_string() const;
};

LeakageReport audit_split(const PacketDataset& ds, const SplitIndices& split);

}  // namespace sugar::dataset
