#include "dataset/task.h"

#include <unordered_map>

namespace sugar::dataset {

std::string to_string(TaskId t) {
  switch (t) {
    case TaskId::VpnBinary: return "VPN-binary";
    case TaskId::VpnService: return "VPN-service";
    case TaskId::VpnApp: return "VPN-app";
    case TaskId::UstcBinary: return "USTC-binary";
    case TaskId::UstcApp: return "USTC-app";
    case TaskId::Tls120: return "TLS-120";
  }
  return "?";
}

SourceDataset source_of(TaskId t) {
  switch (t) {
    case TaskId::VpnBinary:
    case TaskId::VpnService:
    case TaskId::VpnApp:
      return SourceDataset::IscxVpn;
    case TaskId::UstcBinary:
    case TaskId::UstcApp:
      return SourceDataset::UstcTfc;
    case TaskId::Tls120:
      return SourceDataset::CstnTls;
  }
  return SourceDataset::CstnTls;
}

std::vector<std::vector<std::size_t>> PacketDataset::flows() const {
  int max_id = -1;
  for (int f : flow_id) max_id = std::max(max_id, f);
  std::vector<std::vector<std::size_t>> out(static_cast<std::size_t>(max_id + 1));
  for (std::size_t i = 0; i < flow_id.size(); ++i)
    out[static_cast<std::size_t>(flow_id[i])].push_back(i);
  return out;
}

std::vector<int> PacketDataset::flow_labels() const {
  auto fl = flows();
  std::vector<int> out(fl.size(), -1);
  for (std::size_t f = 0; f < fl.size(); ++f)
    if (!fl[f].empty()) out[f] = label[fl[f].front()];
  return out;
}

PacketDataset PacketDataset::subset(const std::vector<std::size_t>& indices) const {
  PacketDataset out;
  out.task_name = task_name;
  out.num_classes = num_classes;
  out.class_names = class_names;
  out.packets.reserve(indices.size());
  for (std::size_t i : indices) {
    out.packets.push_back(packets[i]);
    out.parsed.push_back(parsed[i]);
    out.label.push_back(label[i]);
    out.flow_id.push_back(flow_id[i]);
  }
  return out;
}

PacketDataset make_task_dataset(const trafficgen::GeneratedTrace& trace, TaskId task) {
  PacketDataset out;
  out.task_name = to_string(task);

  auto label_of = [&](std::size_t i) -> int {
    const auto& l = trace.labels[i];
    switch (task) {
      case TaskId::VpnBinary: return l.binary;
      case TaskId::VpnService: return l.service;
      case TaskId::VpnApp: return l.cls;
      case TaskId::UstcBinary: return l.binary;
      case TaskId::UstcApp: return l.cls;
      case TaskId::Tls120: return l.cls;
    }
    return -1;
  };

  switch (task) {
    case TaskId::VpnBinary:
      out.class_names = {"non-VPN", "VPN"};
      break;
    case TaskId::VpnService:
      out.class_names = trace.service_names;
      break;
    case TaskId::UstcBinary:
      out.class_names = {"benign", "malware"};
      break;
    case TaskId::VpnApp:
    case TaskId::UstcApp:
    case TaskId::Tls120:
      out.class_names = trace.class_names;
      break;
  }

  net::FlowTable table;
  std::vector<int> raw_flow;
  for (std::size_t i = 0; i < trace.packets.size(); ++i) {
    int lbl = label_of(i);
    if (lbl < 0) continue;  // unlabeled / spurious packet: not part of the task
    auto outcome = net::parse_packet(trace.packets[i]);
    if (!outcome.ok()) continue;
    int fid = table.add(out.packets.size(), *outcome.parsed, trace.packets[i].ts_usec);
    if (fid < 0) continue;  // keyless packets cannot join a flow task
    out.packets.push_back(trace.packets[i]);
    out.parsed.push_back(*outcome.parsed);
    out.label.push_back(lbl);
    raw_flow.push_back(fid);
  }
  out.flow_id = std::move(raw_flow);

  int max_label = -1;
  for (int l : out.label) max_label = std::max(max_label, l);
  out.num_classes = std::max<int>(max_label + 1, static_cast<int>(out.class_names.size()));
  return out;
}

PacketDataset make_unlabeled_dataset(const trafficgen::GeneratedTrace& trace) {
  PacketDataset out;
  out.task_name = "unlabeled:" + trace.dataset_name;
  out.num_classes = 1;
  out.class_names = {"unlabeled"};
  net::FlowTable table;
  for (const auto& pkt : trace.packets) {
    auto outcome = net::parse_packet(pkt);
    if (!outcome.ok()) continue;
    int fid = table.add(out.packets.size(), *outcome.parsed, pkt.ts_usec);
    out.packets.push_back(pkt);
    out.parsed.push_back(*outcome.parsed);
    out.label.push_back(0);
    out.flow_id.push_back(fid < 0 ? 0 : fid);
  }
  return out;
}

}  // namespace sugar::dataset
