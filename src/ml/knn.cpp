#include "ml/knn.h"

#include <algorithm>
#include <numeric>

#include "core/threadpool.h"
#include "core/trace.h"

namespace sugar::ml {
namespace {

// Query rows per parallel block. Fixed so the purity reduction's per-block
// partial sums — and thus the double accumulation order — never depend on
// the thread count.
constexpr std::size_t kQueryGrain = 32;

/// Per-block scratch for the neighbour search: the distance array and the
/// result index list are reused across every query a block handles, so the
/// O(n)-sized buffers allocate once per block instead of once per query.
struct KnnScratch {
  std::vector<std::pair<float, std::size_t>> dist;
  std::vector<std::size_t> nn;
};

/// Indices of the k rows of `pool` nearest to row `self` (itself
/// excluded), written into `scratch.nn`. Ties are broken by index (pair
/// comparison), so the neighbour set is deterministic regardless of which
/// thread evaluates the query.
void k_nearest(const Matrix& pool, std::size_t self, int k, KnnScratch& scratch) {
  auto& dist = scratch.dist;
  dist.clear();
  dist.reserve(pool.rows());
  for (std::size_t i = 0; i < pool.rows(); ++i) {
    if (i == self) continue;
    dist.emplace_back(squared_distance(pool.row(i), pool.row(self), pool.cols()), i);
  }
  std::size_t kk = std::min<std::size_t>(static_cast<std::size_t>(k), dist.size());
  std::partial_sort(dist.begin(), dist.begin() + static_cast<std::ptrdiff_t>(kk),
                    dist.end());
  scratch.nn.resize(kk);
  for (std::size_t i = 0; i < kk; ++i) scratch.nn[i] = dist[i].second;
}

}  // namespace

PurityHistogram knn_purity(const Matrix& embeddings, const std::vector<int>& labels,
                           int k) {
  SUGAR_TRACE_SPAN("ml.knn.purity");
  SUGAR_TRACE_COUNT("ml.knn_queries", embeddings.rows());
  PurityHistogram result;
  result.histogram.assign(static_cast<std::size_t>(k + 1), 0.0);
  std::size_t n = embeddings.rows();
  if (n < 2) return result;

  struct Partial {
    std::vector<double> histogram;
    double purity_sum = 0;
  };
  const std::size_t blocks = core::ThreadPool::block_count(0, n, kQueryGrain);
  std::vector<Partial> partials(blocks);
  core::global_pool().parallel_for(
      0, n, kQueryGrain, [&](std::size_t r0, std::size_t r1) {
        Partial& p = partials[r0 / kQueryGrain];
        p.histogram.assign(static_cast<std::size_t>(k + 1), 0.0);
        KnnScratch scratch;
        for (std::size_t i = r0; i < r1; ++i) {
          k_nearest(embeddings, i, k, scratch);
          const auto& nn = scratch.nn;
          int same = 0;
          for (std::size_t j : nn)
            if (labels[j] == labels[i]) ++same;
          ++p.histogram[static_cast<std::size_t>(same)];
          p.purity_sum += nn.empty() ? 0.0
                                     : static_cast<double>(same) /
                                           static_cast<double>(nn.size());
        }
      });

  // Combine in ascending block order: the double summation is bit-identical
  // at any thread count because the block structure is fixed.
  double purity_sum = 0;
  for (const Partial& p : partials) {
    for (std::size_t j = 0; j < p.histogram.size(); ++j)
      result.histogram[j] += p.histogram[j];
    purity_sum += p.purity_sum;
  }
  for (auto& h : result.histogram) h /= static_cast<double>(n);
  result.mean_purity = purity_sum / static_cast<double>(n);
  return result;
}

}  // namespace sugar::ml
