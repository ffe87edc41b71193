#include "ml/tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "core/simd.h"
#include "core/threadpool.h"
#include "ml/binned.h"

namespace sugar::ml {
namespace {

/// Smallest gain a split must reach (the float 1e-7f, promoted to double
/// in the comparison).
constexpr float kMinGain = 1e-7f;

double gini_from_counts(const std::vector<double>& counts, double total) {
  if (total <= 0) return 0;
  // Strided-8 sum-of-squares (core/simd.h spec): same result on every
  // build, unrolled for the wide-class-count datasets.
  double s = core::simd::sum_squares_f64(counts.data(), counts.size());
  return 1.0 - s / (total * total);
}

/// Flat 64-byte-aligned histogram storage (class counts or g/h/count
/// triples per bin).
using F64Buffer = std::vector<double, AlignedAllocator<double>>;

}  // namespace

struct DecisionTree::BuildContext {
  /// Quantize-once codes shared per fit: a resident BinnedMatrix, or any
  /// BinnedColumnSource (paged store) for the out-of-core fits.
  const BinnedColumnSource* codes = nullptr;
  /// The floats `codes` were quantized from (classifier fits only), or
  /// null: then every split must come from the histogram sweep and
  /// partitioning runs on codes.
  const Matrix* raw = nullptr;
  // Classification:
  const std::vector<int>* y = nullptr;
  int num_classes = 0;
  // Regression:
  const std::vector<float>* grad = nullptr;
  const std::vector<float>* hess = nullptr;
  std::vector<float>* row_values = nullptr;

  TreeConfig cfg;
  std::mt19937_64* rng = nullptr;
  const std::vector<std::uint32_t>* subset = nullptr;
  std::vector<std::uint32_t> rows{};  // working index buffer (partitioned in place)

  [[nodiscard]] bool regression() const { return grad != nullptr; }
};

namespace {

struct SplitResult {
  int feature = -1;
  float threshold = 0;
  double gain = 0;
  std::size_t left_count = 0;
  int bin = -1;  // histogram splits: threshold == cuts[bin]; exact: -1
};

struct PendingNode {
  int node_index;
  std::size_t begin, end;  // range in ctx.rows
  int depth;
  double gain_bound;  // for leaf-wise priority
};

}  // namespace

void DecisionTree::build(BuildContext& ctx) {
  nodes_.clear();
  const BinnedColumnSource& codes = *ctx.codes;
  if (ctx.subset) {
    ctx.rows = *ctx.subset;
  } else {
    ctx.rows.resize(codes.rows());
    std::iota(ctx.rows.begin(), ctx.rows.end(), 0);
  }
  // No raw floats: every split must come from the histogram sweep so the
  // code partition can replicate it exactly.
  if (!ctx.raw) ctx.cfg.exact_split_max = 0;
  const TreeConfig& cfg = ctx.cfg;
  const std::size_t d = codes.cols();
  importance_.assign(d, 0.0);

  // Candidate feature list (subsampled per split).
  std::vector<std::size_t> all_features(d);
  std::iota(all_features.begin(), all_features.end(), 0);
  std::size_t feats_per_split =
      cfg.features_per_split > 0
          ? std::min<std::size_t>(static_cast<std::size_t>(cfg.features_per_split), d)
          : d;

  // Histogram geometry, packed: feature f's slot starts at slot_off[f] and
  // spans its own bin_count(f) bins, `per_bin` doubles each, so a 2-valued
  // flag column costs 2 bins and not the configured maximum:
  //   classification: hist[slot_off[f] + code*k + class]  counts
  //   regression:     hist[slot_off[f] + code*3 + {0,1,2}] = {g, h, count}
  const std::size_t k = static_cast<std::size_t>(std::max(ctx.num_classes, 1));
  const std::size_t per_bin = ctx.regression() ? 3 : k;
  std::vector<std::size_t> slot_off(d + 1, 0);
  for (std::size_t f = 0; f < d; ++f)
    slot_off[f + 1] =
        slot_off[f] + static_cast<std::size_t>(codes.bin_count(f)) * per_bin;
  // Sibling subtraction needs parent and children to share the same feature
  // set, so it only pays when every split considers all features (GBDT).
  // Feature-sampled fits (forest) accumulate just the sampled slots per
  // node instead, which is cheaper than d-wide histograms they'd mostly
  // never sweep.
  const bool subtract_mode = cfg.hist_subtraction && feats_per_split >= d;

  // Cached all-feature histograms by node index (subtract mode), plus a
  // free list so buffers recycle instead of reallocating per node.
  std::unordered_map<int, F64Buffer> node_hist;
  std::vector<F64Buffer> hist_pool;
  auto acquire_hist = [&](std::size_t size) -> F64Buffer {
    F64Buffer b;
    if (!hist_pool.empty()) {
      b = std::move(hist_pool.back());
      hist_pool.pop_back();
    }
    b.assign(size, 0.0);
    return b;
  };
  auto release_hist = [&](F64Buffer&& b) {
    if (!b.empty()) hist_pool.push_back(std::move(b));
  };
  // Removes a node's cached histogram; empty if it has none.
  auto take_hist = [&](int node_index) {
    F64Buffer h;
    if (auto it = node_hist.find(node_index); it != node_hist.end()) {
      h = std::move(it->second);
      node_hist.erase(it);
    }
    return h;
  };
  // A node that stays a leaf hands its cached histogram back at once, so
  // leaf-wise growth holds buffers only for the candidates still open.
  auto drop_hist = [&](int node_index) { release_hist(take_hist(node_index)); };

  // Scratch.
  F64Buffer sampled_hist;  // per-node buffer without subtraction (sampled feats)
  std::vector<std::size_t> sampled_off;  // its packed slot offsets
  std::vector<double> left_counts;
  std::vector<std::uint32_t> part_scratch;  // stable code-partition right side

  // Accumulates [begin, end) of ctx.rows into per-feature histogram slots,
  // feats[s]'s slot at h + off[s]. One feature per pool block (grain 1):
  // each slot is written by exactly one worker, sequentially in row order,
  // so the result is bit-identical at any SUGAR_THREADS (stronger than the
  // block-ordered reduction contract — writes are disjoint). Re-entrant
  // dispatch (inside the forest's per-tree or GBDT's per-class
  // parallel_for) runs inline.
  auto accumulate_binned = [&](std::size_t begin, std::size_t end,
                               const std::vector<std::size_t>& feats,
                               const std::size_t* off, double* h) {
    core::global_pool().parallel_for(
        0, feats.size(), 1, [&](std::size_t s0, std::size_t s1) {
          for (std::size_t s = s0; s < s1; ++s) {
            // A one-bin feature has no split to sweep, so its codes (which
            // a store cannot range-check without cuts) are never read.
            if (codes.bin_count(feats[s]) == 1) continue;
            CodeCursor code(codes, feats[s]);
            double* hf = h + off[s];
            if (ctx.regression()) {
              const float* gv = ctx.grad->data();
              const float* hv = ctx.hess->data();
              for (std::size_t i = begin; i < end; ++i) {
                const std::uint32_t r = ctx.rows[i];
                double* cell = hf + 3u * code.at(r);
                cell[0] += gv[r];
                cell[1] += hv[r];
                cell[2] += 1.0;
              }
            } else {
              const int* yv = ctx.y->data();
              for (std::size_t i = begin; i < end; ++i) {
                const std::uint32_t r = ctx.rows[i];
                hf[static_cast<std::size_t>(code.at(r)) * k +
                   static_cast<std::size_t>(yv[r])] += 1.0;
              }
            }
          }
        });
  };
  // All-feature histogram of rows [begin, end) in a pooled buffer.
  auto node_histogram = [&](std::size_t begin, std::size_t end) {
    F64Buffer h = acquire_hist(slot_off[d]);
    accumulate_binned(begin, end, all_features, slot_off.data(), h.data());
    return h;
  };

  // Each node's [begin, end) range of ctx.rows as of its make_leaf: for the
  // nodes that stay leaves, exactly the training rows that reach them.
  std::vector<std::pair<std::size_t, std::size_t>> leaf_rows;
  auto make_leaf = [&](int node_index, std::size_t begin, std::size_t end) {
    Node& node = nodes_[static_cast<std::size_t>(node_index)];
    leaf_rows.resize(nodes_.size());
    leaf_rows[static_cast<std::size_t>(node_index)] = {begin, end};
    if (ctx.regression()) {
      double g = 0, h = 0;
      for (std::size_t i = begin; i < end; ++i) {
        g += (*ctx.grad)[ctx.rows[i]];
        h += (*ctx.hess)[ctx.rows[i]];
      }
      node.value = static_cast<float>(-g / (h + cfg.lambda));
    } else {
      std::vector<std::size_t> counts(static_cast<std::size_t>(ctx.num_classes), 0);
      for (std::size_t i = begin; i < end; ++i)
        ++counts[static_cast<std::size_t>((*ctx.y)[ctx.rows[i]])];
      node.cls = static_cast<int>(
          std::max_element(counts.begin(), counts.end()) - counts.begin());
    }
    node.feature = -1;
  };

  auto find_split = [&](int node_index, std::size_t begin,
                        std::size_t end) -> SplitResult {
    SplitResult best;
    std::size_t n = end - begin;
    if (n < 2 * cfg.min_samples_leaf) return best;

    // Feature subset for this split.
    std::vector<std::size_t> feats = all_features;
    if (feats_per_split < d) {
      std::shuffle(feats.begin(), feats.end(), *ctx.rng);
      feats.resize(feats_per_split);
    }

    // Parent statistics.
    double parent_impurity = 0;
    double parent_sum_sq = 0;
    double total_g = 0, total_h = 0;
    std::vector<double> parent_counts;
    if (ctx.regression()) {
      for (std::size_t i = begin; i < end; ++i) {
        total_g += (*ctx.grad)[ctx.rows[i]];
        total_h += (*ctx.hess)[ctx.rows[i]];
      }
    } else {
      parent_counts.assign(static_cast<std::size_t>(ctx.num_classes), 0.0);
      for (std::size_t i = begin; i < end; ++i)
        parent_counts[static_cast<std::size_t>((*ctx.y)[ctx.rows[i]])] += 1.0;
      parent_impurity = gini_from_counts(parent_counts, static_cast<double>(n));
      if (parent_impurity <= 0) return best;  // pure node
      for (double c : parent_counts) parent_sum_sq += c * c;
    }

    // Exact split search for the small nodes of a classifier fit given its
    // raw floats: sort samples per feature and sweep all boundaries between
    // distinct values. Fits without the floats (exact_split_max forced to
    // 0) never take it.
    if (ctx.raw && n <= cfg.exact_split_max) {
      std::vector<std::uint32_t> sorted(ctx.rows.begin() + static_cast<std::ptrdiff_t>(begin),
                                        ctx.rows.begin() + static_cast<std::ptrdiff_t>(end));
      for (std::size_t f : feats) {
        std::sort(sorted.begin(), sorted.end(), [&](std::uint32_t a, std::uint32_t b) {
          return (*ctx.raw)(a, f) < (*ctx.raw)(b, f);
        });
        std::vector<double> left(static_cast<std::size_t>(ctx.num_classes), 0.0);
        double sum_sq_l = 0;
        double sum_sq_r = parent_sum_sq;
        for (std::size_t i = 0; i + 1 < n; ++i) {
          std::uint32_t r = sorted[i];
          auto y = static_cast<std::size_t>((*ctx.y)[r]);
          // Incremental sum-of-squares update when one sample of class y
          // moves from the right partition to the left.
          double rc = parent_counts[y] - left[y];
          sum_sq_r += -2.0 * rc + 1.0;
          sum_sq_l += 2.0 * left[y] + 1.0;
          left[y] += 1.0;
          float v = (*ctx.raw)(r, f);
          float vn = (*ctx.raw)(sorted[i + 1], f);
          if (v == vn) continue;
          double nl = static_cast<double>(i + 1);
          double nr = static_cast<double>(n) - nl;
          if (nl < static_cast<double>(cfg.min_samples_leaf) ||
              nr < static_cast<double>(cfg.min_samples_leaf))
            continue;
          double imp_l = 1.0 - sum_sq_l / (nl * nl);
          double imp_r = 1.0 - sum_sq_r / (nr * nr);
          double child = (nl * imp_l + nr * imp_r) / static_cast<double>(n);
          double gain = (parent_impurity - child) * static_cast<double>(n);
          if (gain > best.gain)
            best = {.feature = static_cast<int>(f),
                    .threshold = 0.5f * (v + vn),
                    .gain = gain,
                    .left_count = static_cast<std::size_t>(nl)};
        }
      }
      if (best.gain < kMinGain) best.feature = -1;
      return best;
    }

    // Histogram sweeps shared by both large-node sources (whole-tree
    // subtract-mode buffer, per-node sampled buffer): `hist` holds
    // `cuts.size()+1` bins of class counts or {g, h, count} triples;
    // splitting after bin b uses threshold cuts[b].
    auto sweep_class = [&](const double* hist, const std::vector<float>& cuts,
                           std::size_t f) {
      int nb = static_cast<int>(cuts.size()) + 1;
      left_counts.assign(k, 0.0);
      double nl = 0;
      double sum_sq_l = 0, sum_sq_r = parent_sum_sq;
      for (int b = 0; b + 1 < nb; ++b) {
        const double* bc = hist + static_cast<std::size_t>(b) * k;
        for (std::size_t c = 0; c < k; ++c) {
          const double m = bc[c];
          if (m == 0.0) continue;
          // Incremental sum-of-squares update when m samples of class c
          // move from the right partition to the left (O(1) per class,
          // not O(k) recomputation per bin).
          sum_sq_l += (2.0 * left_counts[c] + m) * m;
          sum_sq_r += (m - 2.0 * (parent_counts[c] - left_counts[c])) * m;
          left_counts[c] += m;
          nl += m;
        }
        double nr = static_cast<double>(n) - nl;
        if (nl < static_cast<double>(cfg.min_samples_leaf) ||
            nr < static_cast<double>(cfg.min_samples_leaf))
          continue;
        double imp_l = 1.0 - sum_sq_l / (nl * nl);
        double imp_r = 1.0 - sum_sq_r / (nr * nr);
        double child = (nl * imp_l + nr * imp_r) / static_cast<double>(n);
        double gain = (parent_impurity - child) * static_cast<double>(n);
        if (gain > best.gain)
          best = {.feature = static_cast<int>(f),
                  .threshold = cuts[static_cast<std::size_t>(b)],
                  .gain = gain,
                  .left_count = static_cast<std::size_t>(nl),
                  .bin = b};
      }
    };
    auto sweep_reg = [&](const double* hist, const std::vector<float>& cuts,
                         std::size_t f) {
      int nb = static_cast<int>(cuts.size()) + 1;
      double gl = 0, hl = 0, cnt_l = 0;
      double parent_score = total_g * total_g / (total_h + cfg.lambda);
      for (int b = 0; b + 1 < nb; ++b) {
        const double* cell = hist + static_cast<std::size_t>(b) * 3;
        gl += cell[0];
        hl += cell[1];
        cnt_l += cell[2];
        if (cnt_l < static_cast<double>(cfg.min_samples_leaf) ||
            static_cast<double>(n) - cnt_l < static_cast<double>(cfg.min_samples_leaf))
          continue;
        double gr = total_g - gl, hr = total_h - hl;
        double gain = gl * gl / (hl + cfg.lambda) + gr * gr / (hr + cfg.lambda) -
                      parent_score;
        if (gain > best.gain)
          best = {.feature = static_cast<int>(f),
                  .threshold = cuts[static_cast<std::size_t>(b)],
                  .gain = gain,
                  .left_count = static_cast<std::size_t>(cnt_l),
                  .bin = b};
      }
    };
    auto sweep = [&](const double* hist, const std::vector<float>& cuts,
                     std::size_t f) {
      if (ctx.regression())
        sweep_reg(hist, cuts, f);
      else
        sweep_class(hist, cuts, f);
    };

    if (subtract_mode) {
      // Whole-tree cached histogram: the root (or any node whose parent
      // split on the exact path) accumulates on demand; everyone else
      // inherited theirs from propagate_hists below.
      auto it = node_hist.find(node_index);
      if (it == node_hist.end())
        it = node_hist.emplace(node_index, node_histogram(begin, end)).first;
      const double* h = it->second.data();
      for (std::size_t f : feats) sweep(h + slot_off[f], codes.cuts(f), f);
    } else {
      // Sampled-feature fit: accumulate only this split's candidate slots,
      // packed in sample order, into a transient buffer.
      sampled_off.assign(feats.size() + 1, 0);
      for (std::size_t s = 0; s < feats.size(); ++s)
        sampled_off[s + 1] = sampled_off[s] + slot_off[feats[s] + 1] - slot_off[feats[s]];
      sampled_hist.assign(sampled_off.back(), 0.0);
      accumulate_binned(begin, end, feats, sampled_off.data(), sampled_hist.data());
      for (std::size_t s = 0; s < feats.size(); ++s)
        sweep(sampled_hist.data() + sampled_off[s], codes.cuts(feats[s]), feats[s]);
    }
    if (best.gain < kMinGain) best.feature = -1;
    return best;
  };

  auto partition = [&](std::size_t begin, std::size_t end, int feature,
                       float threshold, int bin) -> std::size_t {
    if (ctx.raw) {
      auto mid = std::partition(
          ctx.rows.begin() + static_cast<std::ptrdiff_t>(begin),
          ctx.rows.begin() + static_cast<std::ptrdiff_t>(end),
          [&](std::uint32_t r) {
            // Strict '<' matches the histogram convention: bin b holds
            // values in [cuts[b-1], cuts[b]), so a split after bin b sends
            // v < cuts[b] to the left child.
            return (*ctx.raw)(r, static_cast<std::size_t>(feature)) < threshold;
          });
      return static_cast<std::size_t>(mid - ctx.rows.begin());
    }
    // Codes-only fit: partition on codes (`code <= bin` ≡ `v < cuts[bin]`,
    // the BinnedMatrix invariant), STABLY — lefts compact in place, rights
    // detour through a reused scratch buffer. Stability keeps every node's
    // row range sorted, so paged column access stays monotone down the
    // whole tree and each page is pulled at most once per (node, feature).
    CodeCursor code(codes, static_cast<std::size_t>(feature));
    part_scratch.clear();
    std::size_t w = begin;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = ctx.rows[i];
      if (static_cast<int>(code.at(r)) <= bin)
        ctx.rows[w++] = r;
      else
        part_scratch.push_back(r);
    }
    std::copy(part_scratch.begin(), part_scratch.end(),
              ctx.rows.begin() + static_cast<std::ptrdiff_t>(w));
    return w;
  };

  // True when a child node at `child_depth` with `count` rows will take
  // the whole-tree histogram path (and so is worth handing a buffer).
  // find_split accumulates on demand if this ever disagrees — the
  // predicate is a performance contract, not a correctness one.
  auto child_needs_hist = [&](std::size_t count, int child_depth) {
    return subtract_mode && count > cfg.exact_split_max &&
           child_depth < cfg.max_depth && count >= 2 * cfg.min_samples_leaf;
  };

  // After splitting `parent` rows [begin,end) at `mid`: hand histograms to
  // the children that will need them. Accumulate only the smaller side and
  // derive the larger from the parent by subtraction — the sibling trick
  // that halves accumulation work per level. Classification counts are
  // integers in doubles, so subtracted histograms are exact.
  auto propagate_hists = [&](int parent, int left, int right, std::size_t begin,
                             std::size_t mid, std::size_t end, int child_depth) {
    if (!subtract_mode) return;
    F64Buffer ph = take_hist(parent);
    if (ph.empty()) return;  // parent split on the exact path
    const bool left_small = mid - begin <= end - mid;
    const bool need_small =
        child_needs_hist(left_small ? mid - begin : end - mid, child_depth);
    const bool need_large =
        child_needs_hist(left_small ? end - mid : mid - begin, child_depth);
    if (!need_small && !need_large) {
      release_hist(std::move(ph));
      return;
    }
    F64Buffer small = left_small ? node_histogram(begin, mid) : node_histogram(mid, end);
    if (need_large) {
      for (std::size_t i = 0; i < ph.size(); ++i) ph[i] -= small[i];
      node_hist.emplace(left_small ? right : left, std::move(ph));
    } else {
      release_hist(std::move(ph));
    }
    if (need_small)
      node_hist.emplace(left_small ? left : right, std::move(small));
    else
      release_hist(std::move(small));
  };

  // Root.
  nodes_.emplace_back();

  if (cfg.max_leaves > 0) {
    // Leaf-wise best-first growth (LightGBM style).
    struct Cand {
      double gain;
      int node_index;
      std::size_t begin, end;
      int depth;
      SplitResult split;
      bool operator<(const Cand& o) const { return gain < o.gain; }
    };
    std::priority_queue<Cand> heap;
    auto push_candidate = [&](int node_index, std::size_t begin, std::size_t end,
                              int depth) {
      make_leaf(node_index, begin, end);
      if (depth >= cfg.max_depth) return;
      SplitResult s = find_split(node_index, begin, end);
      if (s.feature >= 0)
        heap.push({s.gain, node_index, begin, end, depth, s});
      else
        drop_hist(node_index);
    };
    push_candidate(0, 0, ctx.rows.size(), 0);
    int leaves = 1;
    while (!heap.empty() && leaves < cfg.max_leaves) {
      Cand c = heap.top();
      heap.pop();
      std::size_t mid = partition(c.begin, c.end, c.split.feature,
                                  c.split.threshold, c.split.bin);
      if (mid == c.begin || mid == c.end) {  // degenerate
        drop_hist(c.node_index);
        continue;
      }
      // Re-index after every emplace_back: the vector may reallocate.
      int left = static_cast<int>(nodes_.size());
      nodes_.emplace_back();
      int right = static_cast<int>(nodes_.size());
      nodes_.emplace_back();
      Node& node = nodes_[static_cast<std::size_t>(c.node_index)];
      node.feature = c.split.feature;
      node.threshold = c.split.threshold;
      node.left = left;
      node.right = right;
      importance_[static_cast<std::size_t>(c.split.feature)] += c.split.gain;
      propagate_hists(c.node_index, left, right, c.begin, mid, c.end, c.depth + 1);
      push_candidate(left, c.begin, mid, c.depth + 1);
      push_candidate(right, mid, c.end, c.depth + 1);
      ++leaves;
    }
  } else {
    // Depth-wise recursion via an explicit stack.
    std::vector<PendingNode> stack;
    stack.push_back({0, 0, ctx.rows.size(), 0, 0});
    while (!stack.empty()) {
      PendingNode p = stack.back();
      stack.pop_back();
      make_leaf(p.node_index, p.begin, p.end);
      if (p.depth >= cfg.max_depth) continue;
      SplitResult s = find_split(p.node_index, p.begin, p.end);
      const std::size_t mid =
          s.feature < 0 ? p.begin : partition(p.begin, p.end, s.feature, s.threshold, s.bin);
      if (mid == p.begin || mid == p.end) {  // no split, or a degenerate one
        drop_hist(p.node_index);
        continue;
      }
      // Append children first: emplace_back may reallocate nodes_.
      int left = static_cast<int>(nodes_.size());
      nodes_.emplace_back();
      int right = static_cast<int>(nodes_.size());
      nodes_.emplace_back();
      Node& node = nodes_[static_cast<std::size_t>(p.node_index)];
      node.feature = s.feature;
      node.threshold = s.threshold;
      node.left = left;
      node.right = right;
      importance_[static_cast<std::size_t>(s.feature)] += s.gain;
      propagate_hists(p.node_index, left, right, p.begin, mid, p.end, p.depth + 1);
      stack.push_back({left, p.begin, mid, p.depth + 1, 0});
      stack.push_back({right, mid, p.end, p.depth + 1, 0});
    }
  }

  // Every leaf stamps its value on the training rows its range holds. A
  // regression fit partitions on codes, and `code <= bin` <=> `x < cuts[bin]`
  // routes each row as leaf_index() does, so these are the predict_value()
  // outputs, bit for bit.
  if (ctx.row_values) {
    ctx.row_values->resize(codes.rows());
    for (std::size_t j = 0; j < nodes_.size(); ++j) {
      if (nodes_[j].feature >= 0) continue;
      for (std::size_t i = leaf_rows[j].first; i < leaf_rows[j].second; ++i)
        (*ctx.row_values)[ctx.rows[i]] = nodes_[j].value;
    }
  }
}

void DecisionTree::fit_classifier(const BinnedColumnSource& codes, const Matrix* raw,
                                  const std::vector<int>& y, int num_classes,
                                  const TreeConfig& cfg, std::mt19937_64& rng,
                                  const std::vector<std::uint32_t>* subset) {
  BuildContext ctx{.codes = &codes,
                   .raw = raw,
                   .y = &y,
                   .num_classes = num_classes,
                   .cfg = cfg,
                   .rng = &rng,
                   .subset = subset};
  build(ctx);
}

void DecisionTree::fit_regression(const BinnedColumnSource& codes,
                                  const std::vector<float>& grad,
                                  const std::vector<float>& hess,
                                  const TreeConfig& cfg, std::mt19937_64& rng,
                                  std::vector<float>& row_values) {
  BuildContext ctx{.codes = &codes,
                   .grad = &grad,
                   .hess = &hess,
                   .row_values = &row_values,
                   .cfg = cfg,
                   .rng = &rng};
  build(ctx);
}

int DecisionTree::leaf_index(const float* row) const {
  int i = 0;
  while (nodes_[static_cast<std::size_t>(i)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(i)];
    i = row[n.feature] < n.threshold ? n.left : n.right;
  }
  return i;
}

int DecisionTree::predict_class(const float* row) const {
  return nodes_[static_cast<std::size_t>(leaf_index(row))].cls;
}

float DecisionTree::predict_value(const float* row) const {
  return nodes_[static_cast<std::size_t>(leaf_index(row))].value;
}

int DecisionTree::depth() const {
  // Iterative depth computation over the node array.
  if (nodes_.empty()) return 0;
  std::vector<std::pair<int, int>> stack{{0, 1}};
  int best = 0;
  while (!stack.empty()) {
    auto [i, d] = stack.back();
    stack.pop_back();
    best = std::max(best, d);
    const Node& n = nodes_[static_cast<std::size_t>(i)];
    if (n.feature >= 0) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return best;
}

std::vector<double> ensemble_importance(const std::vector<DecisionTree>& trees) {
  if (trees.empty()) return {};
  std::vector<double> total(trees.front().feature_importance().size(), 0.0);
  for (const auto& tree : trees) {
    const auto& imp = tree.feature_importance();
    for (std::size_t i = 0; i < imp.size(); ++i) total[i] += imp[i];
  }
  double sum = 0;
  for (double v : total) sum += v;
  if (sum > 0)
    for (double& v : total) v /= sum;
  return total;
}

}  // namespace sugar::ml
