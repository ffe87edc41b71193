// Softmax MLP classifier on top of the MlpNet core — the fourth shallow
// baseline of Table 8 and the classification-head architecture used by
// every representation-learning model in the paper (a two-layer MLP with
// ReLU, §3.4).
#pragma once

#include <cstdint>
#include <vector>

#include "ml/guard.h"
#include "ml/nn.h"

namespace sugar::ml {

struct MlpConfig {
  std::vector<std::size_t> hidden = {128};
  int epochs = 40;
  std::size_t batch_size = 64;
  float learning_rate = 1e-3f;
  std::uint64_t seed = 29;
  /// Polled at batch granularity; fit() throws CancelledError when set.
  const CancelToken* cancel = nullptr;
};

class MlpClassifier {
 public:
  explicit MlpClassifier(MlpConfig cfg = {}) : cfg_(cfg) {}

  void fit(const Matrix& x, const std::vector<int>& y, int num_classes);
  [[nodiscard]] std::vector<int> predict(const Matrix& x) const;
  [[nodiscard]] Matrix predict_proba(const Matrix& x) const;

  [[nodiscard]] const MlpNet& net() const { return net_; }

 private:
  MlpConfig cfg_;
  MlpNet net_;
  int num_classes_ = 0;
};

}  // namespace sugar::ml
