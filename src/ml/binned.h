// Quantize-once feature binning for histogram tree training. A
// BinnedMatrix is built ONCE per dataset (per forest / GBDT fit): every
// feature column is summarized by a deterministic merge-based quantile
// sketch, cut points are extracted at evenly spaced quantile ranks, and
// each (row, feature) value is quantized to a uint8 bin code stored
// column-major. Tree building then accumulates per-node histograms by
// indexing codes directly.
//
// Determinism: the sketch is a pure function of the column values in row
// order (no RNG, no thread-count dependence — features are quantized in
// parallel but each feature's sketch is computed sequentially by one
// block), so the same Matrix always yields the same cuts and codes at any
// SUGAR_THREADS value.
//
// Bin semantics match the tree's strict '<' partition convention: code b
// holds values in [cuts[b-1], cuts[b]); a split "after bin b" uses
// threshold cuts[b], sending exactly the rows with value < cuts[b] (codes
// <= b) to the left child. Values equal to a cut belong to the bin to its
// RIGHT. The invariant `code <= b  <=>  value < cuts[b]` is what lets the
// out-of-core fit partition on codes without ever touching the raw floats.
//
// BinnedColumnSource abstracts WHERE the codes live: BinnedMatrix serves
// them from its resident buffer, while dataset::PagedCodeSource serves
// 64 KB–1 MB column pages out of a SUGC store through core::PageCache.
// Tree building consumes either through a CodeCursor, so the paged fit is
// bit-identical to the resident one by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ml/matrix.h"

namespace sugar::ml {

/// Bin index of `v` under the strict '<' convention: the number of cuts
/// <= v (std::upper_bound). cuts must be sorted ascending and distinct.
int quantize_bin(const std::vector<float>& cuts, float v);

namespace detail {
/// One weighted summary point of the merge sketch: `v` is an actual data
/// value, `w` the number of column entries it stands for.
struct WeightedVal {
  float v;
  double w;
};
}  // namespace detail

/// Streaming quantile sketch for ONE feature column: feed values in row
/// order, finalize into cut points. This is exactly the sketch
/// BinnedMatrix runs per column — exposed so out-of-core producers can
/// derive bit-identical cuts from streamed row blocks without a resident
/// Matrix. Pure function of the value sequence.
class ColumnSketch {
 public:
  /// Rows are folded into the sketch in sorted blocks of this size.
  static constexpr std::size_t kBlock = 4096;

  explicit ColumnSketch(int bins);

  void add(float v);
  /// Flushes the partial block and extracts the cuts. Call once.
  [[nodiscard]] std::vector<float> finalize();

 private:
  void flush();

  int bins_ = 0;
  std::size_t cap_ = 0;
  std::vector<float> block_;
  std::vector<detail::WeightedVal> summary_, incoming_, merged_;
};

/// A contiguous run of bin codes for one feature, covering rows
/// [begin, end). `data[r - begin]` is row r's code.
struct CodeChunk {
  const std::uint8_t* data = nullptr;
  std::size_t begin = 0, end = 0;
};

/// Where tree fits read bin codes from: a resident BinnedMatrix or a paged
/// on-disk store. fetch() may be called concurrently from pool workers
/// (one cursor per worker); implementations must be thread-safe.
class BinnedColumnSource {
 public:
  virtual ~BinnedColumnSource() = default;

  [[nodiscard]] virtual std::size_t rows() const = 0;
  [[nodiscard]] virtual std::size_t cols() const = 0;
  /// Ascending distinct cut points of feature f.
  [[nodiscard]] virtual const std::vector<float>& cuts(std::size_t f) const = 0;

  /// Actual bin count of feature f: cuts(f).size() + 1.
  [[nodiscard]] int bin_count(std::size_t f) const {
    return static_cast<int>(cuts(f).size()) + 1;
  }
  /// Split threshold after bin b of feature f.
  [[nodiscard]] float threshold(std::size_t f, int b) const {
    return cuts(f)[static_cast<std::size_t>(b)];
  }

  /// The chunk of feature f's codes containing `row`. `keepalive` must be
  /// held for as long as the chunk pointer is used (paged sources park the
  /// page pin there; resident sources leave it empty).
  [[nodiscard]] virtual CodeChunk fetch(std::size_t f, std::size_t row,
                                        std::shared_ptr<const void>& keepalive) const = 0;

  /// Lookahead hint: `row` is about to be fetched for feature f (paged
  /// sources enqueue a prefetch; resident sources ignore it).
  virtual void hint(std::size_t /*f*/, std::size_t /*row*/) const {}
};

/// Sequential-friendly reader over one feature's codes. at(r) is an inline
/// bounds check against the current chunk; crossing a chunk boundary
/// refills through the source (a page pin swap for paged sources) and
/// posts the next-chunk hint. Monotone row access touches each page once.
class CodeCursor {
 public:
  CodeCursor(const BinnedColumnSource& src, std::size_t f)
      : src_(&src), f_(f) {}

  [[nodiscard]] std::uint8_t at(std::size_t r) {
    if (r < lo_ || r >= hi_) refill(r);
    return data_[r - lo_];
  }

 private:
  void refill(std::size_t r) {
    CodeChunk c = src_->fetch(f_, r, keepalive_);
    data_ = c.data;
    lo_ = c.begin;
    hi_ = c.end;
    if (hi_ < src_->rows()) src_->hint(f_, hi_);
  }

  const BinnedColumnSource* src_;
  std::size_t f_;
  const std::uint8_t* data_ = nullptr;
  std::size_t lo_ = 1, hi_ = 0;  // empty interval forces the first refill
  std::shared_ptr<const void> keepalive_;
};

class BinnedMatrix final : public BinnedColumnSource {
 public:
  /// Codes can index at most 256 bins (uint8 storage).
  static constexpr int kMaxBins = 256;

  BinnedMatrix() = default;

  /// Quantizes `x` with at most `bins` bins per feature (clamped to
  /// [2, kMaxBins]). Features are processed in parallel on the global
  /// thread pool; the result is identical at any pool width.
  BinnedMatrix(const Matrix& x, int bins);

  [[nodiscard]] std::size_t rows() const override { return rows_; }
  [[nodiscard]] std::size_t cols() const override { return cols_; }
  /// Configured maximum bin count; bin_count(f) is feature f's own.
  [[nodiscard]] int bins() const { return bins_; }

  [[nodiscard]] const std::vector<float>& cuts(std::size_t f) const override {
    return cuts_[f];
  }

  /// Resident source: one chunk spans the whole column, no pin needed.
  [[nodiscard]] CodeChunk fetch(std::size_t f, std::size_t /*row*/,
                                std::shared_ptr<const void>&) const override {
    return {codes(f), 0, rows_};
  }

  /// Column of bin codes for feature f, length rows(). Columns start on
  /// 64-byte boundaries (the stride pads rows() up).
  [[nodiscard]] const std::uint8_t* codes(std::size_t f) const {
    return codes_.data() + f * stride_;
  }

  /// Total bytes held by the code store (observability).
  [[nodiscard]] std::size_t code_bytes() const { return codes_.size(); }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::size_t stride_ = 0;  // rows_ rounded up to 64
  int bins_ = 0;
  std::vector<std::vector<float>> cuts_;
  std::vector<std::uint8_t, AlignedAllocator<std::uint8_t>> codes_;
};

}  // namespace sugar::ml
