// Tests for the quantize-once binned training substrate (ml/binned.h):
// bin-code semantics pinned against the strict '<' partition convention,
// sketch determinism across pool widths, sibling-subtraction histogram
// identity vs direct accumulation, histogram-path model quality, pinned
// forest and GBDT model digests, and GBDT cancellation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/artifact.h"
#include "core/threadpool.h"
#include "ml/binned.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"
#include "ml/tree.h"

namespace sugar::ml {
namespace {

/// Rebuilds the global pool at a given width for the test body, then
/// restores the env-derived width so later tests see the default substrate.
class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { core::set_global_threads(n); }
  ~ScopedThreads() { core::set_global_threads(0); }
};

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  for (auto& v : m.data()) v = dist(rng);
  return m;
}

/// Gaussian blobs: one cluster per class.
std::pair<Matrix, std::vector<int>> make_blobs(int classes, std::size_t per_class,
                                               std::size_t dims, double spread,
                                               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> noise(0.0f, static_cast<float>(spread));
  Matrix x(static_cast<std::size_t>(classes) * per_class, dims);
  std::vector<int> y;
  std::size_t row = 0;
  for (int c = 0; c < classes; ++c) {
    for (std::size_t i = 0; i < per_class; ++i, ++row) {
      for (std::size_t d = 0; d < dims; ++d)
        x(row, d) = static_cast<float>(c * 3 + (d % 2 ? 1 : -1)) + noise(rng);
      y.push_back(c);
    }
  }
  return {std::move(x), std::move(y)};
}

TEST(QuantizeBin, StrictLessConventionValueOnCutGoesRight) {
  const std::vector<float> cuts{1.0f, 2.0f, 3.0f};
  EXPECT_EQ(quantize_bin(cuts, 0.5f), 0);
  EXPECT_EQ(quantize_bin(cuts, 0.999f), 0);
  // A value equal to a cut belongs to the bin on the cut's RIGHT: the
  // partition predicate is strict '<', so v == threshold goes right.
  EXPECT_EQ(quantize_bin(cuts, 1.0f), 1);
  EXPECT_EQ(quantize_bin(cuts, 1.5f), 1);
  EXPECT_EQ(quantize_bin(cuts, 2.0f), 2);
  EXPECT_EQ(quantize_bin(cuts, 3.0f), 3);
  EXPECT_EQ(quantize_bin(cuts, 99.0f), 3);
}

TEST(BinnedMatrix, CodesMatchStrictPartitionConvention) {
  const Matrix x = random_matrix(400, 7, 101);
  const BinnedMatrix bm(x, 16);
  ASSERT_EQ(bm.rows(), x.rows());
  ASSERT_EQ(bm.cols(), x.cols());
  for (std::size_t f = 0; f < x.cols(); ++f) {
    const auto& cuts = bm.cuts(f);
    ASSERT_LT(static_cast<int>(cuts.size()), bm.bins());
    for (std::size_t i = 1; i < cuts.size(); ++i)
      ASSERT_LT(cuts[i - 1], cuts[i]) << "cuts not strictly ascending";
    const std::uint8_t* code = bm.codes(f);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      const float v = x(r, f);
      const int b = code[r];
      ASSERT_EQ(b, quantize_bin(cuts, v));
      // Bin b holds [cuts[b-1], cuts[b]): splitting after bin b with
      // threshold cuts[b] must send exactly codes <= b to the left.
      if (b > 0) {
        ASSERT_GE(v, cuts[static_cast<std::size_t>(b - 1)]);
      }
      if (b < static_cast<int>(cuts.size())) {
        ASSERT_LT(v, cuts[static_cast<std::size_t>(b)]);
      }
    }
  }
}

TEST(BinnedMatrix, FewDistinctValuesGetDistinctCodes) {
  // A 4-valued column with plenty of bins must keep the values separable:
  // every distinct value maps to its own code.
  Matrix x(256, 1);
  for (std::size_t r = 0; r < x.rows(); ++r)
    x(r, 0) = static_cast<float>(r % 4);
  const BinnedMatrix bm(x, 8);
  const std::uint8_t* code = bm.codes(0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t s = 0; s < x.rows(); ++s) {
      if (x(r, 0) == x(s, 0)) {
        ASSERT_EQ(code[r], code[s]);
      } else if (x(r, 0) < x(s, 0)) {
        ASSERT_LT(code[r], code[s]);
      }
    }
    if (r >= 8) break;  // all residues seen twice; the rest repeats
  }
}

TEST(BinnedMatrix, ConstantColumnHasOneBin) {
  Matrix x(64, 2, 1.5f);
  const BinnedMatrix bm(x, 32);
  EXPECT_EQ(bm.bin_count(0), 1);
  EXPECT_TRUE(bm.cuts(0).empty());
  const std::uint8_t* code = bm.codes(0);
  for (std::size_t r = 0; r < x.rows(); ++r) EXPECT_EQ(code[r], 0);
}

TEST(BinnedMatrix, DeterministicAcrossPoolWidths) {
  const Matrix x = random_matrix(3000, 9, 77);
  std::vector<std::vector<float>> ref_cuts;
  std::vector<std::uint8_t> ref_codes;
  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ScopedThreads threads(w);
    const BinnedMatrix bm(x, 64);
    std::vector<std::vector<float>> cuts;
    for (std::size_t f = 0; f < bm.cols(); ++f) cuts.push_back(bm.cuts(f));
    std::vector<std::uint8_t> codes;
    for (std::size_t f = 0; f < bm.cols(); ++f)
      codes.insert(codes.end(), bm.codes(f), bm.codes(f) + bm.rows());
    if (ref_cuts.empty()) {
      ref_cuts = std::move(cuts);
      ref_codes = std::move(codes);
      continue;
    }
    EXPECT_EQ(cuts, ref_cuts) << "threads " << w;
    EXPECT_EQ(codes, ref_codes) << "threads " << w;
  }
}

TEST(HistogramTree, SiblingSubtractionIdenticalToDirectAccumulation) {
  // Classification histograms hold integer counts in doubles, so the
  // subtracted sibling histogram is exact — the trees must be identical,
  // not merely close. All features per split => subtract mode engages;
  // tiny exact_split_max keeps nodes on the histogram path deep down. A
  // constant column (1 bin) and a two-valued flag (2 bins) sit between the
  // wide blob columns, so packed slots of every width are neighbours.
  auto [blobs, y] = make_blobs(4, 300, 6, 1.2, 5);
  Matrix x(blobs.rows(), blobs.cols() + 2);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t c = 0; c < blobs.cols(); ++c)
      x(r, c + (c >= 2) + (c >= 4)) = blobs(r, c);
    x(r, 2) = 7.0f;
    x(r, 5) = static_cast<float>(y[r] >= 2 && r % 4 != 0);
  }
  TreeConfig cfg;
  cfg.max_depth = 9;
  cfg.histogram_bins = 32;
  cfg.exact_split_max = 16;
  cfg.features_per_split = 0;  // all features: subtraction eligible
  const BinnedMatrix bm(x, cfg.histogram_bins);
  ASSERT_EQ(bm.bin_count(2), 1);
  ASSERT_EQ(bm.bin_count(5), 2);

  DecisionTree direct, subtracted;
  {
    TreeConfig c = cfg;
    c.hist_subtraction = false;
    std::mt19937_64 rng(9);
    direct.fit_classifier(bm, &x, y, 4, c, rng);
  }
  {
    TreeConfig c = cfg;
    c.hist_subtraction = true;
    std::mt19937_64 rng(9);
    subtracted.fit_classifier(bm, &x, y, 4, c, rng);
  }
  ASSERT_EQ(direct.node_count(), subtracted.node_count());
  ASSERT_GT(direct.node_count(), 16u) << "histogram path not exercised";
  for (std::size_t i = 0; i < x.rows(); ++i)
    ASSERT_EQ(direct.predict_class(x.row(i)), subtracted.predict_class(x.row(i)))
        << "row " << i;
  const auto& ia = direct.feature_importance();
  const auto& ib = subtracted.feature_importance();
  ASSERT_EQ(ia.size(), ib.size());
  for (std::size_t f = 0; f < ia.size(); ++f)
    EXPECT_EQ(ia[f], ib[f]) << "feature " << f;
}

TEST(HistogramTree, BinnedForestMatchesLegacyQuality) {
  // Quality of the histogram path: every node above 32 rows splits on the
  // shared bin grid, and the forest must still separate the blobs.
  auto [x, y] = make_blobs(3, 250, 5, 1.0, 13);
  ForestConfig cfg;
  cfg.num_trees = 12;
  cfg.seed = 3;
  cfg.tree.exact_split_max = 32;  // force the histogram path

  RandomForest rf(cfg);
  rf.fit(x, y, 3);
  EXPECT_GT(evaluate(y, rf.predict(x), 3).accuracy, 0.95);
}

TEST(HistogramTree, GbdtSubtractionPreservesQuality) {
  // Regression histograms accumulate float g/h into doubles, so the
  // subtracted sibling can differ in the last ulp from direct
  // accumulation — we require quality parity rather than bit identity.
  auto [x, y] = make_blobs(3, 200, 5, 1.0, 21);
  GbdtConfig cfg = GbdtConfig::lightgbm_style();
  cfg.rounds = 10;

  cfg.tree.hist_subtraction = true;
  GradientBoosting with_sub(cfg);
  with_sub.fit(x, y, 3);
  cfg.tree.hist_subtraction = false;
  GradientBoosting without_sub(cfg);
  without_sub.fit(x, y, 3);

  const double acc_sub = evaluate(y, with_sub.predict(x), 3).accuracy;
  const double acc_direct = evaluate(y, without_sub.predict(x), 3).accuracy;
  EXPECT_GT(acc_sub, 0.95);
  EXPECT_GT(acc_direct, 0.95);
  EXPECT_NEAR(acc_sub, acc_direct, 0.03);
}

TEST(HistogramTree, ForestFitDigestIdenticalAcrossPoolWidths) {
  // The shared-BinnedMatrix forest fit must be bit-identical at any
  // SUGAR_THREADS: quantization is per-feature deterministic, per-node
  // accumulation writes disjoint feature slots, and trees own seeded RNG
  // streams.
  auto [x, y] = make_blobs(4, 200, 6, 1.3, 31);
  ForestConfig cfg;
  cfg.num_trees = 9;
  cfg.seed = 55;
  cfg.tree.exact_split_max = 32;

  std::vector<int> ref_pred;
  std::vector<double> ref_imp;
  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ScopedThreads threads(w);
    RandomForest rf(cfg);
    rf.fit(x, y, 4);
    auto pred = rf.predict(x);
    auto imp = rf.feature_importance();
    if (ref_pred.empty()) {
      ref_pred = std::move(pred);
      ref_imp = std::move(imp);
      continue;
    }
    EXPECT_EQ(pred, ref_pred) << "threads " << w;
    ASSERT_EQ(imp.size(), ref_imp.size());
    for (std::size_t f = 0; f < imp.size(); ++f)
      EXPECT_EQ(imp[f], ref_imp[f]) << "feature " << f << " threads " << w;
  }
}

TEST(HistogramTree, GbdtFitDigestIdenticalAcrossPoolWidths) {
  // A multi-class round fits its class trees concurrently, one pool block
  // per class — 9 classes give more blocks than the widest pool — and each
  // tree's histograms accumulate inline in its block. Every tree draws from
  // its own seeded stream and writes only its own margin column, so the
  // scores must be bitwise stable.
  auto [x, y] = make_blobs(9, 60, 6, 1.2, 41);
  for (bool leafwise : {false, true}) {
    GbdtConfig cfg =
        leafwise ? GbdtConfig::lightgbm_style() : GbdtConfig::xgboost_style();
    cfg.rounds = 6;

    Matrix ref_scores;
    for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
      ScopedThreads threads(w);
      GradientBoosting gbdt(cfg);
      gbdt.fit(x, y, 9);
      Matrix scores = gbdt.decision_function(x);
      if (ref_scores.size() == 0) {
        ref_scores = std::move(scores);
        continue;
      }
      ASSERT_EQ(scores.rows(), ref_scores.rows());
      ASSERT_EQ(scores.cols(), ref_scores.cols());
      EXPECT_EQ(std::memcmp(scores.data().data(), ref_scores.data().data(),
                            scores.size() * sizeof(float)),
                0)
          << "leafwise " << leafwise << " threads " << w;
    }
  }
}

/// FNV-1a over raw element bytes.
template <typename T>
std::uint64_t digest_of(const T* data, std::size_t count) {
  return core::fnv1a64(
      std::string_view(reinterpret_cast<const char*>(data), count * sizeof(T)));
}

/// Fixed problem for the pinned digests: 1,600 rows of 8 class-dependent
/// features. The forest pins sweep exactly at every node (exact_split_max
/// 4096) or from 32 rows down; the GBDT and fit_binned pins split on
/// histograms only.
std::pair<Matrix, std::vector<int>> pinned_problem(int classes) {
  constexpr std::size_t kRows = 1600, kDims = 8;
  std::mt19937_64 rng(2024);
  std::normal_distribution<float> noise(0.0f, 1.5f);
  Matrix x(kRows, kDims);
  std::vector<int> y(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    y[r] = static_cast<int>(r % static_cast<std::size_t>(classes));
    for (std::size_t d = 0; d < kDims; ++d)
      x(r, d) = static_cast<float>((static_cast<std::size_t>(y[r]) * (d + 1)) % 7) +
                noise(rng);
  }
  return {std::move(x), std::move(y)};
}

struct PinnedGbdt {
  int classes;
  bool leafwise;
  std::uint64_t scores;      // decision_function bytes
  std::uint64_t importance;  // feature_importance bytes
};

// Recorded from fit_binned over the problem's 256-bin codes. A round's
// class trees fit in parallel but draw no random numbers, so a model that
// moves here has changed, not just its schedule. fit(x) is that same
// estimator, so it must read the same pin.
constexpr PinnedGbdt kPinnedGbdt[] = {
    {2, false, 0x16acb702fbed20c2ull, 0x6e9c047be390c495ull},
    {2, true, 0x16acb702fbed20c2ull, 0x6e9c047be390c495ull},
    {5, false, 0x7482e718744c1069ull, 0xbe7a419a8b150c9full},
    {5, true, 0x914ae77b727362e3ull, 0x1a750dcbfb43a70eull},
    {12, false, 0xa5adff08876464fcull, 0x5385b96a7ada0c70ull},
    {12, true, 0xbe1a8507c8697610ull, 0x92804f16656d3545ull},
};

TEST(HistogramTree, GbdtDigestsPinnedAcrossPoolWidths) {
  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ScopedThreads threads(w);
    for (const PinnedGbdt& pin : kPinnedGbdt) {
      auto [x, y] = pinned_problem(pin.classes);
      GbdtConfig cfg =
          pin.leafwise ? GbdtConfig::lightgbm_style() : GbdtConfig::xgboost_style();
      cfg.rounds = 8;
      for (bool binned : {false, true}) {
        GradientBoosting gbdt(cfg);
        if (binned)
          gbdt.fit_binned(BinnedMatrix(x, 256), y, pin.classes);
        else
          gbdt.fit(x, y, pin.classes);
        const Matrix scores = gbdt.decision_function(x);
        const std::vector<double> imp = gbdt.feature_importance();
        const std::string where = std::to_string(pin.classes) + " classes, " +
                                  (pin.leafwise ? "lightgbm" : "xgboost") +
                                  (binned ? " fit_binned" : " fit") + ", threads " +
                                  std::to_string(w);
        EXPECT_EQ(digest_of(scores.data().data(), scores.size()), pin.scores) << where;
        EXPECT_EQ(digest_of(imp.data(), imp.size()), pin.importance) << where;
      }
    }
  }
}

struct PinnedForest {
  int classes;
  std::size_t exact_split_max;
  bool binned;  // fit_binned over the problem's BinnedMatrix, else fit
  std::uint64_t predict;     // predict bytes
  std::uint64_t importance;  // feature_importance bytes
};

// Recorded from the forest fit whose resident trees took their bootstrap
// bags unsorted. Class counts are integers held in doubles, so sorting the
// bags must leave every tree unchanged. fit_binned forces exact_split_max
// to 0, so its two rows per class count agree.
constexpr PinnedForest kPinnedForest[] = {
    {2, 4096, false, 0x31c68f065c41e525ull, 0xb56e9b6fd7cef8c3ull},
    {2, 4096, true, 0x31c68f065c41e525ull, 0xcee574e385e44db9ull},
    {2, 32, false, 0x31c68f065c41e525ull, 0x2842781cb8ebadfcull},
    {2, 32, true, 0x31c68f065c41e525ull, 0xcee574e385e44db9ull},
    {5, 4096, false, 0x963fc160413d8ea0ull, 0x70b05e52fae88ed5ull},
    {5, 4096, true, 0xe2186ea4f8fcf1b5ull, 0x016d4fe97095f5aaull},
    {5, 32, false, 0x8116386463a99505ull, 0xae6c79e31e88b72eull},
    {5, 32, true, 0xe2186ea4f8fcf1b5ull, 0x016d4fe97095f5aaull},
    {12, 4096, false, 0xe88226bd4dcdf609ull, 0xe83041224b4b48f2ull},
    {12, 4096, true, 0x7b0cf4bfcf1c79c5ull, 0x5b29ed02809dc37bull},
    {12, 32, false, 0x85dcfb344f859334ull, 0xb8bad1797595a15aull},
    {12, 32, true, 0x7b0cf4bfcf1c79c5ull, 0x5b29ed02809dc37bull},
};

TEST(HistogramTree, ForestDigestsPinnedAcrossPoolWidths) {
  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ScopedThreads threads(w);
    for (const PinnedForest& pin : kPinnedForest) {
      auto [x, y] = pinned_problem(pin.classes);
      ForestConfig cfg;
      cfg.num_trees = 12;
      cfg.tree.exact_split_max = pin.exact_split_max;
      RandomForest rf(cfg);
      if (pin.binned)
        rf.fit_binned(BinnedMatrix(x, cfg.tree.histogram_bins), y, pin.classes);
      else
        rf.fit(x, y, pin.classes);
      const std::vector<int> pred = rf.predict(x);
      const std::vector<double> imp = rf.feature_importance();
      const std::string where =
          std::to_string(pin.classes) + " classes, exact_split_max " +
          std::to_string(pin.exact_split_max) + (pin.binned ? " fit_binned" : " fit") +
          ", threads " + std::to_string(w);
      EXPECT_EQ(digest_of(pred.data(), pred.size()), pin.predict) << where;
      EXPECT_EQ(digest_of(imp.data(), imp.size()), pin.importance) << where;
    }
  }
}

TEST(GbdtCancel, PreCancelledFitBinnedThrows) {
  auto [x, y] = make_blobs(4, 50, 4, 1.0, 7);
  const BinnedMatrix bm(x, 32);
  CancelToken token;
  token.cancel();
  GbdtConfig cfg;
  cfg.cancel = &token;
  GradientBoosting gbdt(cfg);
  EXPECT_THROW(gbdt.fit_binned(bm, y, 4), CancelledError);
  EXPECT_TRUE(gbdt.feature_importance().empty()) << "no round completed";
}

/// A BinnedMatrix that cancels `token` on its `after`-th code fetch, so the
/// cancel lands inside a tree fit, past that round's cancellation poll.
class CancellingSource final : public BinnedColumnSource {
 public:
  CancellingSource(const BinnedMatrix& bm, CancelToken& token, std::size_t after)
      : bm_(bm), token_(token), after_(after) {}
  std::size_t rows() const override { return bm_.rows(); }
  std::size_t cols() const override { return bm_.cols(); }
  const std::vector<float>& cuts(std::size_t f) const override { return bm_.cuts(f); }
  CodeChunk fetch(std::size_t f, std::size_t row,
                  std::shared_ptr<const void>& keepalive) const override {
    if (fetches_.fetch_add(1) + 1 == after_) token_.cancel();
    return bm_.fetch(f, row, keepalive);
  }
  std::size_t fetches() const { return fetches_.load(); }

 private:
  const BinnedMatrix& bm_;
  CancelToken& token_;
  std::size_t after_;
  mutable std::atomic<std::size_t> fetches_{0};
};

TEST(GbdtCancel, CancelInsideARoundKeepsOnlyWholeRounds) {
  // The cancel fires on the first code fetch of round 2, inside its first
  // class tree: the classes not yet started throw from their own poll
  // inside the parallel region, the pool rethrows on the caller, and the
  // model keeps exactly round 1 — never a default-constructed tree.
  auto [x, y] = make_blobs(9, 60, 4, 1.0, 7);
  const BinnedMatrix bm(x, 32);
  GbdtConfig cfg = GbdtConfig::xgboost_style();
  cfg.rounds = 1;
  CancelToken unused;
  CancellingSource counter(bm, unused, 0);
  GradientBoosting one_round(cfg);
  one_round.fit_binned(counter, y, 9);
  const Matrix expect = one_round.decision_function(x);

  for (std::size_t w : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    ScopedThreads threads(w);
    CancelToken token;
    CancellingSource src(bm, token, counter.fetches() + 1);
    cfg.rounds = 4;
    cfg.cancel = &token;
    GradientBoosting gbdt(cfg);
    EXPECT_THROW(gbdt.fit_binned(src, y, 9), CancelledError) << "threads " << w;
    const Matrix scores = gbdt.decision_function(x);
    ASSERT_EQ(scores.size(), expect.size());
    EXPECT_EQ(std::memcmp(scores.data().data(), expect.data().data(),
                          scores.size() * sizeof(float)),
              0)
        << "threads " << w;
  }
}

}  // namespace
}  // namespace sugar::ml
