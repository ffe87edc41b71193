// Train/test splitting — the heart of the paper's critique. Per-packet
// splitting scatters packets of one flow across train and test (leaking
// implicit flow ids); per-flow splitting keeps each flow whole on one side.
// Both are implemented here, along with balanced/stratified sampling and
// per-flow K-fold cross-validation.
#pragma once

#include <cstdint>
#include <vector>

#include "dataset/task.h"

namespace sugar::dataset {

enum class SplitPolicy {
  PerPacket,  // random over packets — the flawed policy most prior work used
  PerFlow,    // random over flows — the paper's recommended policy
};

std::string to_string(SplitPolicy p);

struct SplitIndices {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};

/// Share of the data put in train: the paper's 7:1. Per-packet splits cut
/// each class's packets at it, per-flow splits aim each class's packet mass
/// at it, and the advanced splits cut clients, flows or sessions at it.
inline constexpr double kTrainFraction = 0.875;

struct SplitOptions {
  SplitPolicy policy = SplitPolicy::PerFlow;
  std::uint64_t seed = 7;
};

/// Splits a dataset into train/test packet-index sets.
SplitIndices split_dataset(const PacketDataset& ds, const SplitOptions& opts);

/// Balanced undersampling of the training set: each class is reduced to the
/// size of its minority class (the paper's few-shot-stressing train policy).
std::vector<std::size_t> balance_train(const PacketDataset& ds,
                                       const std::vector<std::size_t>& train,
                                       std::uint64_t seed);

/// Stratified subsample of a packet-index set that preserves class
/// proportions (the paper's recommended way to shrink a test set).
std::vector<std::size_t> stratified_sample(const PacketDataset& ds,
                                           const std::vector<std::size_t>& indices,
                                           double fraction, std::uint64_t seed);

/// Caps the number of packets retained per flow (paper: flows longer than
/// 1000 packets are subsampled to 1000).
std::vector<std::size_t> cap_flow_length(const PacketDataset& ds,
                                         const std::vector<std::size_t>& indices,
                                         std::size_t max_per_flow, std::uint64_t seed);

/// K folds over the *training* partition, flow-consistent when the policy is
/// PerFlow: fold k uses folds != k for training and fold k for validation.
std::vector<SplitIndices> kfold(const PacketDataset& ds,
                                const std::vector<std::size_t>& train, int k,
                                SplitPolicy policy, std::uint64_t seed);

}  // namespace sugar::dataset
