// Feature preprocessing: standard scaling fit on train only (fitting on the
// full dataset would itself be a small leak — the pipeline is strict about
// this).
#pragma once

#include <vector>

#include "ml/matrix.h"

namespace sugar::ml {

class StandardScaler {
 public:
  void fit(const Matrix& x);
  void transform(Matrix& x) const;

  [[nodiscard]] const std::vector<float>& mean() const { return mean_; }
  [[nodiscard]] const std::vector<float>& stddev() const { return std_; }

 private:
  std::vector<float> mean_;
  std::vector<float> std_;
};

}  // namespace sugar::ml
