// The model zoo: laptop-scale analogs of the five surveyed models plus
// Pcap-Encoder, each with the input policy of Appendix A.2 and a network
// size chosen to preserve the paper's efficiency ordering (Figure 6:
// netFound largest/slowest, NetMamba smallest/fastest, Pcap-Encoder second
// slowest).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "replearn/encoder.h"
#include "replearn/featurize.h"

namespace sugar::replearn {

enum class ModelKind {
  EtBert,
  YaTC,
  NetMamba,
  TrafficFormer,
  NetFound,
  PcapEncoder,
};

/// The six models the paper evaluates (§5).
std::vector<ModelKind> all_model_kinds();
std::string to_string(ModelKind kind);

/// Packet- vs flow-level task mode (changes input views: flow mode consumes
/// the first 5 packets of a flow).
enum class TaskMode { Packet, Flow };

/// A model ready to featurize and train: its view policy plus a fresh
/// (un-pretrained) encoder.
struct ModelBundle {
  ModelKind kind{};
  std::string name;
  TaskMode mode = TaskMode::Packet;

  enum class ViewKind { Byte, Multimodal } view_kind = ViewKind::Byte;
  ByteViewSpec byte_view;
  MultimodalSpec mm_view;
  /// Flow mode: packets per flow consumed (paper: first 5).
  int flow_packets = 5;

  std::unique_ptr<Encoder> encoder;

  /// Featurizes a packet-index subset (packet mode).
  [[nodiscard]] ml::Matrix featurize_packets(
      const dataset::PacketDataset& ds, const std::vector<std::size_t>& indices) const;

  /// Featurizes flows (flow mode): each row concatenates the views of the
  /// flow's first `flow_packets` packets.
  [[nodiscard]] ml::Matrix featurize_flows(
      const dataset::PacketDataset& ds,
      const std::vector<std::vector<std::size_t>>& flows) const;
};

ModelBundle make_model(ModelKind kind, TaskMode mode = TaskMode::Packet);

}  // namespace sugar::replearn
