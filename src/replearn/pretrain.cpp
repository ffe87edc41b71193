#include "replearn/pretrain.h"

#include "core/trace.h"

#include <algorithm>
#include <numeric>
#include <random>

namespace sugar::replearn {

void pretrain_on_backbone(ModelBundle& bundle, const dataset::PacketDataset& backbone,
                          const BackbonePretrainOptions& opts) {
  SUGAR_TRACE_SPAN("replearn.pretrain_backbone");
  std::vector<std::size_t> indices(backbone.size());
  std::iota(indices.begin(), indices.end(), 0);
  if (indices.size() > opts.max_samples) {
    std::mt19937_64 rng(opts.seed);
    std::shuffle(indices.begin(), indices.end(), rng);
    indices.resize(opts.max_samples);
  }

  Encoder& enc = *bundle.encoder;
  if (enc.has_qa_head()) {
    // Pcap-Encoder pre-trains on packets in either task mode (the paper's
    // §6.2 design): auto-encoding, then Q&A on the same rows.
    const ml::Matrix x = bundle.featurize_packets(backbone, indices);
    enc.pretrain(x, opts.pretrain);
    enc.pretrain_qa(x, qa_target_matrix(backbone, indices), opts.pretrain);
  } else if (bundle.mode == TaskMode::Flow) {
    // Pre-train on flow windows assembled from the backbone's flows.
    std::vector<std::vector<std::size_t>> windows;
    for (const auto& f : backbone.flows())
      if (f.size() >= 2) windows.push_back(f);
    if (windows.size() > opts.max_samples / 4) windows.resize(opts.max_samples / 4);
    enc.pretrain(bundle.featurize_flows(backbone, windows), opts.pretrain);
  } else {
    enc.pretrain(bundle.featurize_packets(backbone, indices), opts.pretrain);
  }
}

}  // namespace sugar::replearn
