#include "dataset/split.h"

#include "core/trace.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <unordered_map>

namespace sugar::dataset {

std::string to_string(SplitPolicy p) {
  return p == SplitPolicy::PerPacket ? "per-packet" : "per-flow";
}

SplitIndices split_dataset(const PacketDataset& ds, const SplitOptions& opts) {
  SUGAR_TRACE_SPAN("dataset.split");
  std::mt19937_64 rng(opts.seed);
  SplitIndices out;

  if (opts.policy == SplitPolicy::PerPacket) {
    // Random split of each class's packets — flows straddle the boundary.
    std::unordered_map<int, std::vector<std::size_t>> by_class;
    for (std::size_t i = 0; i < ds.size(); ++i) by_class[ds.label[i]].push_back(i);
    for (auto& [cls, idx] : by_class) {
      std::shuffle(idx.begin(), idx.end(), rng);
      std::size_t n_train =
          static_cast<std::size_t>(kTrainFraction * static_cast<double>(idx.size()));
      for (std::size_t i = 0; i < idx.size(); ++i)
        (i < n_train ? out.train : out.test).push_back(idx[i]);
    }
  } else {
    // Per-flow: assign whole flows, dealt largest-first in a greedy that
    // keeps the packet mass of each side near the target fraction, so long
    // flows spread evenly across partitions (paper §5: "we make sure that
    // long flows are evenly distributed").
    auto flows = ds.flows();
    auto flow_labels = ds.flow_labels();
    std::unordered_map<int, std::vector<std::size_t>> flows_by_class;
    for (std::size_t f = 0; f < flows.size(); ++f)
      if (!flows[f].empty()) flows_by_class[flow_labels[f]].push_back(f);

    for (auto& [cls, fidx] : flows_by_class) {
      std::shuffle(fidx.begin(), fidx.end(), rng);
      std::stable_sort(fidx.begin(), fidx.end(), [&](std::size_t a, std::size_t b) {
        return flows[a].size() > flows[b].size();
      });
      std::size_t total = 0;
      for (std::size_t f : fidx) total += flows[f].size();
      double target_train = kTrainFraction * static_cast<double>(total);
      std::size_t in_train = 0, assigned = 0;
      for (std::size_t f : fidx) {
        // Greedy: put the flow where the deficit is largest.
        double want_train = target_train - static_cast<double>(in_train);
        double want_test = (static_cast<double>(total) - target_train) -
                           static_cast<double>(assigned - in_train);
        bool to_train = want_train >= want_test;
        for (std::size_t i : flows[f]) (to_train ? out.train : out.test).push_back(i);
        if (to_train) in_train += flows[f].size();
        assigned += flows[f].size();
      }
    }
  }
  std::sort(out.train.begin(), out.train.end());
  std::sort(out.test.begin(), out.test.end());
  return out;
}

std::vector<std::size_t> balance_train(const PacketDataset& ds,
                                       const std::vector<std::size_t>& train,
                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::unordered_map<int, std::vector<std::size_t>> by_class;
  for (std::size_t i : train) by_class[ds.label[i]].push_back(i);
  if (by_class.empty()) return {};
  std::size_t minority = SIZE_MAX;
  for (const auto& [cls, idx] : by_class) minority = std::min(minority, idx.size());

  std::vector<std::size_t> out;
  out.reserve(minority * by_class.size());
  for (auto& [cls, idx] : by_class) {
    std::shuffle(idx.begin(), idx.end(), rng);
    out.insert(out.end(), idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(minority));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> stratified_sample(const PacketDataset& ds,
                                           const std::vector<std::size_t>& indices,
                                           double fraction, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::unordered_map<int, std::vector<std::size_t>> by_class;
  for (std::size_t i : indices) by_class[ds.label[i]].push_back(i);
  std::vector<std::size_t> out;
  for (auto& [cls, idx] : by_class) {
    std::shuffle(idx.begin(), idx.end(), rng);
    std::size_t n = std::max<std::size_t>(
        1, static_cast<std::size_t>(fraction * static_cast<double>(idx.size())));
    out.insert(out.end(), idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(std::min(n, idx.size())));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> cap_flow_length(const PacketDataset& ds,
                                         const std::vector<std::size_t>& indices,
                                         std::size_t max_per_flow, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::unordered_map<int, std::vector<std::size_t>> by_flow;
  for (std::size_t i : indices) by_flow[ds.flow_id[i]].push_back(i);
  std::vector<std::size_t> out;
  for (auto& [f, idx] : by_flow) {
    if (idx.size() > max_per_flow) {
      std::shuffle(idx.begin(), idx.end(), rng);
      idx.resize(max_per_flow);
    }
    out.insert(out.end(), idx.begin(), idx.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SplitIndices> kfold(const PacketDataset& ds,
                                const std::vector<std::size_t>& train, int k,
                                SplitPolicy policy, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<int> fold_of_packet(ds.size(), -1);

  if (policy == SplitPolicy::PerPacket) {
    std::vector<std::size_t> shuffled = train;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    for (std::size_t i = 0; i < shuffled.size(); ++i)
      fold_of_packet[shuffled[i]] = static_cast<int>(i % static_cast<std::size_t>(k));
  } else {
    // Flow-consistent folds.
    std::unordered_map<int, int> fold_of_flow;
    std::vector<int> flow_ids;
    for (std::size_t i : train)
      if (fold_of_flow.emplace(ds.flow_id[i], -1).second)
        flow_ids.push_back(ds.flow_id[i]);
    std::shuffle(flow_ids.begin(), flow_ids.end(), rng);
    for (std::size_t i = 0; i < flow_ids.size(); ++i)
      fold_of_flow[flow_ids[i]] = static_cast<int>(i % static_cast<std::size_t>(k));
    for (std::size_t i : train) fold_of_packet[i] = fold_of_flow[ds.flow_id[i]];
  }

  std::vector<SplitIndices> folds(static_cast<std::size_t>(k));
  for (std::size_t i : train) {
    int f = fold_of_packet[i];
    for (int j = 0; j < k; ++j)
      (j == f ? folds[static_cast<std::size_t>(j)].test
              : folds[static_cast<std::size_t>(j)].train)
          .push_back(i);
  }
  return folds;
}

}  // namespace sugar::dataset
