// Pre-training driver: runs a model bundle's self-supervised phase (and,
// for an encoder with a Q&A head, Pcap-Encoder's supervised Q&A phase) on
// an unlabelled backbone trace — the stand-in for the paper's
// MAWI/UNSW/campus pre-training mix.
#pragma once

#include "dataset/task.h"
#include "replearn/model_zoo.h"

namespace sugar::replearn {

struct BackbonePretrainOptions {
  PretrainOptions pretrain;
  /// Cap on pre-training samples (packets drawn from the backbone).
  std::size_t max_samples = 8000;
  std::uint64_t seed = 1009;
};

/// Pre-trains `bundle.encoder` in place on the backbone dataset. Views
/// follow the bundle's input policy. Flow-mode MAE bundles pre-train on the
/// windows of backbone flows with at least two packets, mirroring how the
/// surveyed models pre-train on bursts; Pcap-Encoder pre-trains on packets
/// in either mode.
void pretrain_on_backbone(ModelBundle& bundle, const dataset::PacketDataset& backbone,
                          const BackbonePretrainOptions& opts);

}  // namespace sugar::replearn
