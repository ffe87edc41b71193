#include "net/flow.h"

namespace sugar::net {

std::string FlowKey::to_string() const {
  return a_ip.to_string() + ":" + std::to_string(a_port) + " <-> " +
         b_ip.to_string() + ":" + std::to_string(b_port) + " proto " +
         std::to_string(proto);
}

bool FlowKey::from_parsed(const ParsedPacket& p, FlowKey& key, bool& forward) {
  if (!p.has_ip()) return false;
  auto sp = p.src_port();
  auto dp = p.dst_port();
  if (!sp || !dp) return false;

  IpAddress src = p.ipv4 ? IpAddress::from_v4(p.ipv4->src) : IpAddress::from_v6(p.ipv6->src);
  IpAddress dst = p.ipv4 ? IpAddress::from_v4(p.ipv4->dst) : IpAddress::from_v6(p.ipv6->dst);

  key.proto = p.ip_protocol();
  if (std::tie(src, *sp) <= std::tie(dst, *dp)) {
    key.a_ip = src;
    key.a_port = *sp;
    key.b_ip = dst;
    key.b_port = *dp;
    forward = true;
  } else {
    key.a_ip = dst;
    key.a_port = *dp;
    key.b_ip = src;
    key.b_port = *sp;
    forward = false;
  }
  return true;
}

std::size_t FlowKeyHash::operator()(const FlowKey& k) const {
  // FNV-1a over the key bytes.
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  for (auto b : k.a_ip.bytes) mix(b);
  for (auto b : k.b_ip.bytes) mix(b);
  mix(static_cast<std::uint8_t>(k.a_port >> 8));
  mix(static_cast<std::uint8_t>(k.a_port));
  mix(static_cast<std::uint8_t>(k.b_port >> 8));
  mix(static_cast<std::uint8_t>(k.b_port));
  mix(k.proto);
  return static_cast<std::size_t>(h);
}

int FlowTable::add(std::size_t packet_index, const ParsedPacket& parsed,
                   std::uint64_t ts_usec) {
  FlowKey key;
  bool forward = false;
  if (!FlowKey::from_parsed(parsed, key, forward)) {
    keyless_.push_back(packet_index);
    flow_of_.push_back(-1);
    return -1;
  }
  auto [it, inserted] = index_.try_emplace(key, flows_.size());
  if (inserted) {
    Flow f;
    f.key = key;
    f.first_ts_usec = ts_usec;
    flows_.push_back(std::move(f));
  }
  Flow& f = flows_[it->second];
  f.packets.push_back({.packet_index = packet_index, .forward = forward});
  f.last_ts_usec = ts_usec;
  flow_of_.push_back(static_cast<int>(it->second));
  return static_cast<int>(it->second);
}

FlowTable assemble_flows(const std::vector<Packet>& packets) {
  static const ParsedPacket kUnparsed{};  // no IP layer, so keyless
  FlowTable table;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const ParseOutcome outcome = parse_packet(packets[i]);
    table.add(i, outcome.ok() ? *outcome.parsed : kUnparsed, packets[i].ts_usec);
  }
  return table;
}

}  // namespace sugar::net
