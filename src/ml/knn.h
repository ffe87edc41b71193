// The k-NN embedding-purity analysis of Figure 4: for each point, how many
// of its k nearest neighbours in the embedding space share its class. High
// purity means the embedding clusters classes; the paper shows frozen
// encoders have very low purity and only unfrozen fine-tuning (on a leaky
// split) inflates it.
#pragma once

#include <array>
#include <vector>

#include "ml/matrix.h"

namespace sugar::ml {

struct PurityHistogram {
  /// histogram[j] = fraction of points with exactly j same-class
  /// neighbours among their k nearest (self excluded).
  std::vector<double> histogram;
  double mean_purity = 0;
};

/// Computes k-NN purity over an embedded set. O(n²) distances; callers
/// subsample to a few thousand points. Query rows run in parallel on the
/// shared core::ThreadPool with a fixed block partition, so the histogram
/// and mean are bit-identical at any SUGAR_THREADS value.
PurityHistogram knn_purity(const Matrix& embeddings, const std::vector<int>& labels,
                           int k = 5);

}  // namespace sugar::ml
