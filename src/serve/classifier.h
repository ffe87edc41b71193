// Classification backends for the serve engine. A FlowClassifier scores one
// flow-feature vector at a time and must be safe to call concurrently (the
// engine's round and a background evict_idle_now() both classify) —
// implementations are immutable after construction.
// ForestFlowClassifier wraps the paper's winning shallow model (RandomForest
// on header features); HeuristicClassifier is the test double.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ml/forest.h"
#include "ml/matrix.h"

namespace sugar::serve {

class FlowClassifier {
 public:
  virtual ~FlowClassifier() = default;
  [[nodiscard]] virtual std::size_t feature_dim() const = 0;
  [[nodiscard]] virtual int num_classes() const = 0;
  /// Label for one feature vector of feature_dim() floats. Thread-safe.
  [[nodiscard]] virtual int classify(const float* features) const = 0;
};

/// Frozen RandomForest. classify() is RandomForest::vote on the caller's
/// buffer, so a served verdict equals batch predict() on the same row.
class ForestFlowClassifier final : public FlowClassifier {
 public:
  ForestFlowClassifier(ml::RandomForest forest, std::size_t feature_dim,
                       int num_classes);

  [[nodiscard]] std::size_t feature_dim() const override { return dim_; }
  [[nodiscard]] int num_classes() const override { return classes_; }
  [[nodiscard]] int classify(const float* features) const override {
    return forest_.vote(features);
  }

 private:
  ml::RandomForest forest_;
  std::size_t dim_;
  int classes_;
};

/// Trains a forest on (x, y) and freezes it behind the serve interface.
std::unique_ptr<ForestFlowClassifier> fit_forest_classifier(
    const ml::Matrix& x, const std::vector<int>& y, int num_classes,
    ml::ForestConfig cfg = {});

/// Deterministic stand-in for tests: any pure function of the features.
class HeuristicClassifier final : public FlowClassifier {
 public:
  using Fn = std::function<int(const float*)>;
  HeuristicClassifier(std::size_t feature_dim, int num_classes, Fn fn)
      : dim_(feature_dim), classes_(num_classes), fn_(std::move(fn)) {}

  [[nodiscard]] std::size_t feature_dim() const override { return dim_; }
  [[nodiscard]] int num_classes() const override { return classes_; }
  [[nodiscard]] int classify(const float* features) const override {
    return fn_(features);
  }

 private:
  std::size_t dim_;
  int classes_;
  Fn fn_;
};

}  // namespace sugar::serve
