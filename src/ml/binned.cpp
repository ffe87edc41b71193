#include "ml/binned.h"

#include <algorithm>
#include <cstddef>

#include "core/threadpool.h"
#include "core/trace.h"

namespace sugar::ml {
namespace {

using detail::WeightedVal;

/// Compacts a sorted weighted summary down to `cap` points by picking the
/// values at evenly spaced cumulative ranks; each survivor inherits an
/// equal share of the total weight. Pure function of the input order.
void compact(const std::vector<WeightedVal>& in, std::size_t cap,
             std::vector<WeightedVal>& out) {
  out.clear();
  if (in.size() <= cap) {
    out = in;
    return;
  }
  double total = 0;
  for (const auto& e : in) total += e.w;
  const double share = total / static_cast<double>(cap);
  double cum = 0;
  std::size_t i = 0;
  for (std::size_t j = 0; j < cap; ++j) {
    const double target = total * (static_cast<double>(j) + 0.5) /
                          static_cast<double>(cap);
    while (i + 1 < in.size() && cum + in[i].w <= target) cum += in[i++].w;
    out.push_back({in[i].v, share});
  }
}

/// Merges two sorted weighted runs (stable on equal values: `a` first).
void merge_sorted(const std::vector<WeightedVal>& a,
                  const std::vector<WeightedVal>& b,
                  std::vector<WeightedVal>& out) {
  out.clear();
  out.reserve(a.size() + b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size())
    out.push_back(b[j].v < a[i].v ? b[j++] : a[i++]);
  while (i < a.size()) out.push_back(a[i++]);
  while (j < b.size()) out.push_back(b[j++]);
}

/// Cut points for one column: quantiles of the sketch summary at ranks
/// total*b/bins, deduplicated ascending.
std::vector<float> cuts_from_summary(const std::vector<WeightedVal>& summary,
                                     int bins) {
  std::vector<float> cuts;
  if (summary.empty()) return cuts;
  double total = 0;
  for (const auto& e : summary) total += e.w;
  std::size_t i = 0;
  double cum = 0;
  for (int b = 1; b < bins; ++b) {
    const double target =
        total * static_cast<double>(b) / static_cast<double>(bins);
    while (i + 1 < summary.size() && cum + summary[i].w <= target)
      cum += summary[i++].w;
    const float v = summary[i].v;
    // A cut at the column minimum can never send a row left (strict '<'),
    // so constant columns end up with zero cuts / one bin.
    if (v > summary.front().v && (cuts.empty() || v > cuts.back()))
      cuts.push_back(v);
  }
  return cuts;
}

}  // namespace

int quantize_bin(const std::vector<float>& cuts, float v) {
  return static_cast<int>(std::upper_bound(cuts.begin(), cuts.end(), v) -
                          cuts.begin());
}

ColumnSketch::ColumnSketch(int bins)
    : bins_(std::clamp(bins, 2, BinnedMatrix::kMaxBins)),
      // Summary capacity: columns with <= cap values are summarized exactly
      // (every value survives the merge), larger ones approximately.
      cap_(std::max<std::size_t>(kBlock, 8 * static_cast<std::size_t>(bins_))) {
  block_.reserve(kBlock);
}

void ColumnSketch::add(float v) {
  block_.push_back(v);
  if (block_.size() >= kBlock) flush();
}

void ColumnSketch::flush() {
  if (block_.empty()) return;
  std::sort(block_.begin(), block_.end());
  incoming_.clear();
  for (float v : block_) incoming_.push_back({v, 1.0});
  merge_sorted(summary_, incoming_, merged_);
  compact(merged_, cap_, summary_);
  block_.clear();
}

std::vector<float> ColumnSketch::finalize() {
  flush();
  return cuts_from_summary(summary_, bins_);
}

BinnedMatrix::BinnedMatrix(const Matrix& x, int bins) {
  SUGAR_TRACE_SPAN("ml.binned.quantize");
  rows_ = x.rows();
  cols_ = x.cols();
  bins_ = std::clamp(bins, 2, kMaxBins);
  stride_ = (rows_ + 63) / 64 * 64;
  cuts_.assign(cols_, {});
  codes_.assign(stride_ * cols_, 0);
  SUGAR_TRACE_COUNT("ml.binned.code_bytes", codes_.size());

  // One feature per block: each column's sketch and codes are produced by
  // exactly one worker, sequentially over rows, so the output is a pure
  // function of the data regardless of pool width. ColumnSketch flushes at
  // the same 4096-row block boundaries the original in-place sketch used,
  // so cuts are bit-identical to every earlier release — and to a streamed
  // out-of-core quantization pass feeding the same values in row order.
  core::global_pool().parallel_for(0, cols_, 1, [&](std::size_t f0,
                                                    std::size_t f1) {
    for (std::size_t f = f0; f < f1; ++f) {
      ColumnSketch sketch(bins_);
      for (std::size_t r = 0; r < rows_; ++r) sketch.add(x(r, f));
      cuts_[f] = sketch.finalize();

      const auto& c = cuts_[f];
      std::uint8_t* col = codes_.data() + f * stride_;
      for (std::size_t r = 0; r < rows_; ++r)
        col[r] = static_cast<std::uint8_t>(quantize_bin(c, x(r, f)));
    }
  });
}

}  // namespace sugar::ml
