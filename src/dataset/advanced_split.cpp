#include "dataset/advanced_split.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <random>

namespace sugar::dataset {

std::string to_string(AdvancedSplitPolicy p) {
  switch (p) {
    case AdvancedSplitPolicy::PerClient: return "per-client";
    case AdvancedSplitPolicy::PerTime: return "per-time";
    case AdvancedSplitPolicy::PerSession: return "per-session";
  }
  return "?";
}

net::IpAddress flow_client(const PacketDataset& ds,
                           const std::vector<std::size_t>& flow) {
  if (flow.empty()) return {};
  const auto& p = ds.parsed[flow.front()];
  if (p.ipv4) {
    auto is_client = [](net::Ipv4Address a) { return a.is_private(); };
    if (is_client(p.ipv4->src)) return net::IpAddress::from_v4(p.ipv4->src);
    if (is_client(p.ipv4->dst)) return net::IpAddress::from_v4(p.ipv4->dst);
    return net::IpAddress::from_v4(std::min(p.ipv4->src, p.ipv4->dst));
  }
  if (p.ipv6) {
    return net::IpAddress::from_v6(std::min(p.ipv6->src, p.ipv6->dst));
  }
  return {};
}

SplitIndices advanced_split(const PacketDataset& ds,
                            const AdvancedSplitOptions& opts) {
  auto flows = ds.flows();
  std::mt19937_64 rng(opts.seed);
  SplitIndices out;

  auto assign_flow = [&](std::size_t f, bool to_train) {
    for (std::size_t i : flows[f]) (to_train ? out.train : out.test).push_back(i);
  };

  switch (opts.policy) {
    case AdvancedSplitPolicy::PerClient: {
      // Group flows by client endpoint; split the *clients*.
      std::map<net::IpAddress, std::vector<std::size_t>> by_client;
      for (std::size_t f = 0; f < flows.size(); ++f)
        if (!flows[f].empty()) by_client[flow_client(ds, flows[f])].push_back(f);

      std::vector<net::IpAddress> clients;
      clients.reserve(by_client.size());
      for (const auto& [ip, _] : by_client) clients.push_back(ip);
      std::shuffle(clients.begin(), clients.end(), rng);
      std::size_t n_train = static_cast<std::size_t>(
          kTrainFraction * static_cast<double>(clients.size()));
      for (std::size_t c = 0; c < clients.size(); ++c)
        for (std::size_t f : by_client[clients[c]]) assign_flow(f, c < n_train);
      break;
    }
    case AdvancedSplitPolicy::PerTime: {
      // Order flows by start time and cut once: earliest -> train.
      std::vector<std::pair<std::uint64_t, std::size_t>> order;
      for (std::size_t f = 0; f < flows.size(); ++f) {
        if (flows[f].empty()) continue;
        std::uint64_t start = ds.packets[flows[f].front()].ts_usec;
        for (std::size_t i : flows[f]) start = std::min(start, ds.packets[i].ts_usec);
        order.emplace_back(start, f);
      }
      std::sort(order.begin(), order.end());
      std::size_t n_train = static_cast<std::size_t>(
          kTrainFraction * static_cast<double>(order.size()));
      for (std::size_t k = 0; k < order.size(); ++k)
        assign_flow(order[k].second, k < n_train);
      break;
    }
    case AdvancedSplitPolicy::PerSession: {
      // Cut the capture into contiguous windows by flow start time; assign
      // whole windows. Each window models one collection session.
      std::vector<std::pair<std::uint64_t, std::size_t>> order;
      for (std::size_t f = 0; f < flows.size(); ++f) {
        if (flows[f].empty()) continue;
        order.emplace_back(ds.packets[flows[f].front()].ts_usec, f);
      }
      std::sort(order.begin(), order.end());
      int sessions = std::max(2, opts.sessions);
      std::vector<int> session_ids(static_cast<std::size_t>(sessions));
      std::iota(session_ids.begin(), session_ids.end(), 0);
      std::shuffle(session_ids.begin(), session_ids.end(), rng);
      std::size_t n_train_sessions = std::max<std::size_t>(
          1, static_cast<std::size_t>(kTrainFraction *
                                      static_cast<double>(sessions)));
      std::vector<bool> session_in_train(static_cast<std::size_t>(sessions), false);
      for (std::size_t s = 0; s < n_train_sessions; ++s)
        session_in_train[static_cast<std::size_t>(session_ids[s])] = true;

      for (std::size_t k = 0; k < order.size(); ++k) {
        int session = static_cast<int>(k * static_cast<std::size_t>(sessions) /
                                       order.size());
        assign_flow(order[k].second, session_in_train[static_cast<std::size_t>(session)]);
      }
      break;
    }
  }
  std::sort(out.train.begin(), out.train.end());
  std::sort(out.test.begin(), out.test.end());
  return out;
}

}  // namespace sugar::dataset
