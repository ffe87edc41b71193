#include "replearn/model_zoo.h"
#include <cmath>

namespace sugar::replearn {

std::vector<ModelKind> all_model_kinds() {
  return {ModelKind::EtBert,        ModelKind::YaTC,     ModelKind::NetMamba,
          ModelKind::TrafficFormer, ModelKind::NetFound, ModelKind::PcapEncoder};
}

std::string to_string(ModelKind kind) {
  switch (kind) {
    case ModelKind::EtBert: return "ET-BERT";
    case ModelKind::YaTC: return "YaTC";
    case ModelKind::NetMamba: return "NetMamba";
    case ModelKind::TrafficFormer: return "TrafficFormer";
    case ModelKind::NetFound: return "netFound";
    case ModelKind::PcapEncoder: return "Pcap-Encoder";
  }
  return "?";
}

ml::Matrix ModelBundle::featurize_packets(const dataset::PacketDataset& ds,
                                          const std::vector<std::size_t>& indices) const {
  if (view_kind == ViewKind::Multimodal) return multimodal_matrix(ds, indices, mm_view);
  return byte_view_matrix(ds, indices, byte_view);
}

ml::Matrix ModelBundle::featurize_flows(
    const dataset::PacketDataset& ds,
    const std::vector<std::vector<std::size_t>>& flows) const {
  std::size_t per =
      view_kind == ViewKind::Multimodal ? mm_view.dim() : byte_view.dim();
  std::size_t total = per * static_cast<std::size_t>(flow_packets);
  ml::Matrix x(flows.size(), total);

  for (std::size_t f = 0; f < flows.size(); ++f) {
    std::size_t n = std::min<std::size_t>(flows[f].size(),
                                          static_cast<std::size_t>(flow_packets));
    std::vector<std::size_t> first(flows[f].begin(),
                                   flows[f].begin() + static_cast<std::ptrdiff_t>(n));
    ml::Matrix sub;
    if (view_kind == ViewKind::Multimodal) {
      // Fill the flow-level modalities: packet direction (relative to the
      // flow's first packet) and log inter-arrival time.
      std::vector<FlowPacketContext> ctx(n);
      const auto& first_parsed = ds.parsed[first[0]];
      auto first_src = first_parsed.ipv4 ? first_parsed.ipv4->src.value : 0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto& p = ds.parsed[first[i]];
        ctx[i].direction = p.ipv4 && p.ipv4->src.value == first_src ? 1.0f : 0.0f;
        if (i > 0) {
          double gap = static_cast<double>(ds.packets[first[i]].ts_usec -
                                           ds.packets[first[i - 1]].ts_usec);
          ctx[i].log_interarrival =
              std::min(1.0f, static_cast<float>(std::log1p(gap) / 20.0));
        }
      }
      sub = multimodal_matrix(ds, first, mm_view, &ctx);
    } else {
      sub = featurize_packets(ds, first);
    }
    for (std::size_t i = 0; i < n; ++i)
      std::copy_n(sub.row(i), per, x.row(f) + per * i);
    // Remaining slots stay zero (padding) when the flow is short.
  }
  return x;
}

ModelBundle make_model(ModelKind kind, TaskMode mode) {
  ModelBundle b;
  b.kind = kind;
  b.name = to_string(kind);
  b.mode = mode;
  int fp = mode == TaskMode::Flow ? b.flow_packets : 1;

  auto mae = [&](std::size_t input, std::vector<std::size_t> hidden,
                 std::size_t emb, std::uint64_t seed) {
    b.encoder = std::make_unique<Encoder>(
        EncoderConfig{.name = b.name,
                      .input_dim = input * static_cast<std::size_t>(fp),
                      .hidden = std::move(hidden),
                      .embed_dim = emb,
                      .seed = seed});
  };

  switch (kind) {
    case ModelKind::EtBert:
      // Appendix A.2: Ethernet and IP header removed, TCP ports removed;
      // payload kept (the policy the paper criticizes). Token-style bit
      // encoding on packet tasks.
      b.byte_view = {.length = 96,
                     .include_ip_header = false,
                     .include_l4_header = true,
                     .include_payload = true,
                     .zero_ip_addresses = false,
                     .zero_ports = true,
                     .repeat = 1,
                     .bit_encode = mode == TaskMode::Packet};
      if (mode == TaskMode::Flow) b.byte_view.length = 64;
      mae(b.byte_view.dim(), {192, 192}, 128, 0xE7BE27);
      break;
    case ModelKind::YaTC:
      // Flow-matrix view, IPs and ports anonymized (the paper's Repeat
      // strategy is implicit: one packet fills the matrix on packet tasks).
      b.byte_view = {.length = 80,
                     .include_ip_header = true,
                     .include_l4_header = true,
                     .include_payload = true,
                     .zero_ip_addresses = true,
                     .zero_ports = true,
                     .repeat = 1,
                     .bit_encode = mode == TaskMode::Packet};
      if (mode == TaskMode::Flow) b.byte_view.length = 64;
      mae(b.byte_view.dim(), {128}, 96, 0x9A7C);
      break;
    case ModelKind::NetMamba:
      b.byte_view = {.length = 80,
                     .include_ip_header = true,
                     .include_l4_header = true,
                     .include_payload = true,
                     .zero_ip_addresses = true,
                     .zero_ports = true,
                     .repeat = 1,
                     .bit_encode = mode == TaskMode::Packet};
      if (mode == TaskMode::Flow) b.byte_view.length = 64;
      mae(b.byte_view.dim(), {64}, 48, 0x4E3A);
      break;
    case ModelKind::TrafficFormer:
      // Keeps the full L3+L4 header (minus randomized IPs/ports) plus
      // payload — the richest header view among the surveyed models.
      b.byte_view = {.length = 120,
                     .include_ip_header = true,
                     .include_l4_header = true,
                     .include_payload = true,
                     .zero_ip_addresses = true,
                     .zero_ports = true,
                     .repeat = 1,
                     .bit_encode = mode == TaskMode::Packet};
      if (mode == TaskMode::Flow) b.byte_view.length = 64;
      mae(b.byte_view.dim(), {192, 192}, 128, 0x7F0F);
      break;
    case ModelKind::NetFound:
      // Multimodal: header fields + flow metadata + 12 payload bytes.
      b.view_kind = ModelBundle::ViewKind::Multimodal;
      b.mm_view = {};
      mae(b.mm_view.dim(), {512, 512}, 256, 0x4EF0);
      break;
    case ModelKind::PcapEncoder:
      // Header bytes only, payload excluded, packet-level always.
      b.byte_view = {.length = 60,
                     .include_ip_header = true,
                     .include_l4_header = true,
                     .include_payload = false,
                     .zero_ip_addresses = false,
                     .zero_ports = false,
                     .repeat = 1,
                     .bit_encode = true};
      b.encoder = std::make_unique<Encoder>(EncoderConfig{.name = b.name,
                                                          .input_dim = b.byte_view.dim(),
                                                          .hidden = {256, 256},
                                                          .embed_dim = 160,
                                                          .seed = 13,
                                                          .qa_dim = qa_target_dim()});
      break;
  }
  return b;
}

}  // namespace sugar::replearn
