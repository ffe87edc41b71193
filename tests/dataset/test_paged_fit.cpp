// Tests for the out-of-core training path: a forest/GBDT fit over
// dataset::PagedCodeSource must be bit-identical to the same fit over the
// fully resident codes — at every pool width (SUGAR_THREADS=1/2/7), every
// page size (group_rows small and one-group), and regardless of cache
// pressure. Also pins the streamed quantizer contract: ColumnSketch fed
// row-by-row produces exactly the cuts ml::BinnedMatrix derives resident.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/runerror.h"
#include "core/threadpool.h"
#include "dataset/store.h"
#include "ml/binned.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/matrix.h"

namespace sugar::dataset {
namespace {

namespace fs = std::filesystem;

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { core::set_global_threads(n); }
  ~ScopedThreads() { core::set_global_threads(0); }
};

constexpr std::size_t kRows = 700;
constexpr std::size_t kCols = 8;
constexpr int kBins = 16;
constexpr int kClasses = 4;

/// Gaussian blobs with per-class structure, deterministic.
ml::Matrix make_x() {
  ml::Matrix x(kRows, kCols);
  std::mt19937_64 rng(97);
  std::normal_distribution<float> noise(0.0f, 0.8f);
  for (std::size_t r = 0; r < kRows; ++r)
    for (std::size_t c = 0; c < kCols; ++c)
      x(r, c) = static_cast<float>((r % kClasses) * 2 + (c % 3)) + noise(rng);
  return x;
}

std::vector<int> make_y() {
  std::vector<int> y(kRows);
  for (std::size_t r = 0; r < kRows; ++r)
    y[r] = static_cast<int>(r % kClasses);
  return y;
}

struct CodeTable {
  std::vector<std::vector<std::uint8_t>> codes;  // [col][row]
  std::vector<std::vector<float>> cuts;
};

CodeTable quantize(const ml::Matrix& x) {
  CodeTable t;
  t.codes.resize(kCols);
  t.cuts.resize(kCols);
  for (std::size_t c = 0; c < kCols; ++c) {
    ml::ColumnSketch sketch(kBins);
    for (std::size_t r = 0; r < kRows; ++r) sketch.add(x(r, c));
    t.cuts[c] = sketch.finalize();
    t.codes[c].resize(kRows);
    for (std::size_t r = 0; r < kRows; ++r)
      t.codes[c][r] =
          static_cast<std::uint8_t>(ml::quantize_bin(t.cuts[c], x(r, c)));
  }
  return t;
}

std::string write_code_store(const fs::path& dir, const CodeTable& t,
                             const std::vector<int>& y,
                             std::size_t group_rows) {
  const std::string path =
      (dir / ("codes_" + std::to_string(group_rows) + ".sugc")).string();
  std::vector<ColumnSpec> schema;
  for (std::size_t c = 0; c < kCols; ++c)
    schema.push_back(
        {"f" + std::to_string(c), ColumnType::U8, t.cuts[c]});
  schema.push_back({"y", ColumnType::I32, {}});
  StoreWriter::Options opts;
  opts.group_rows = group_rows;
  opts.bins = kBins;
  StoreWriter w(path, schema, opts);
  StoreError err;
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) w.add_u8(c, t.codes[c][r]);
    w.add_i32(kCols, y[r]);
    EXPECT_TRUE(w.end_row(&err)) << err.message;
  }
  EXPECT_TRUE(w.finalize(&err)) << err.message;
  return path;
}

class PagedFitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sugar_paged_fit_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

TEST_F(PagedFitTest, ColumnSketchMatchesBinnedMatrixCuts) {
  const ml::Matrix x = make_x();
  const ml::BinnedMatrix bm(x, kBins);
  const CodeTable t = quantize(x);
  for (std::size_t c = 0; c < kCols; ++c) {
    EXPECT_EQ(t.cuts[c], bm.cuts(c)) << "column " << c;
    for (std::size_t r = 0; r < kRows; ++r)
      ASSERT_EQ(t.codes[c][r], bm.codes(c)[r])
          << "code mismatch at (" << r << ", " << c << ")";
  }
}

TEST_F(PagedFitTest, ForestPagedFitIsBitIdenticalAcrossWidthsAndPageSizes) {
  const ml::Matrix x = make_x();
  const std::vector<int> y = make_y();
  const CodeTable t = quantize(x);
  const ResidentCodeSource resident(t.codes, t.cuts);

  ml::ForestConfig cfg;
  cfg.num_trees = 4;
  cfg.seed = 7;
  cfg.tree.max_depth = 6;
  cfg.tree.features_per_split = 3;
  cfg.tree.histogram_bins = kBins;

  // Reference model: resident source, single thread.
  std::vector<int> ref_pred;
  std::vector<double> ref_imp;
  {
    ScopedThreads one(1);
    ml::RandomForest rf(cfg);
    rf.fit_binned(resident, y, kClasses);
    ref_pred = rf.predict(x);
    ref_imp = rf.feature_importance();
  }

  for (const std::size_t group_rows : {64u, 4096u}) {
    const std::string path = write_code_store(dir_, t, y, group_rows);
    StoreError err;
    auto reader = StoreReader::open(path, &err);
    ASSERT_TRUE(reader) << err.message;
    std::vector<std::size_t> code_cols;
    for (std::size_t c = 0; c < kCols; ++c) code_cols.push_back(c);
    const PagedCodeSource paged(*reader, code_cols);
    EXPECT_EQ(paged.rows(), kRows);
    EXPECT_EQ(reader->bins(), kBins);

    for (const std::size_t width : {1u, 2u, 7u}) {
      ScopedThreads scoped(width);
      ml::RandomForest rf(cfg);
      rf.fit_binned(paged, y, kClasses);
      EXPECT_EQ(rf.predict(x), ref_pred)
          << "group_rows=" << group_rows << " threads=" << width;
      EXPECT_EQ(rf.feature_importance(), ref_imp)
          << "group_rows=" << group_rows << " threads=" << width;

      // The resident source must agree at this width too (width
      // invariance, not just resident/paged equivalence).
      ml::RandomForest rf_res(cfg);
      rf_res.fit_binned(resident, y, kClasses);
      EXPECT_EQ(rf_res.predict(x), ref_pred) << "threads=" << width;
    }
  }
}

TEST_F(PagedFitTest, GbdtPagedFitIsBitIdenticalAcrossWidthsAndPageSizes) {
  const ml::Matrix x = make_x();
  const std::vector<int> y = make_y();
  const CodeTable t = quantize(x);
  const ResidentCodeSource resident(t.codes, t.cuts);

  ml::GbdtConfig cfg;
  cfg.rounds = 6;
  cfg.seed = 13;
  cfg.tree.max_depth = 4;
  cfg.tree.histogram_bins = kBins;

  std::vector<int> ref_pred;
  std::vector<double> ref_imp;
  {
    ScopedThreads one(1);
    ml::GradientBoosting gb(cfg);
    gb.fit_binned(resident, y, kClasses);
    ref_pred = gb.predict(x);
    ref_imp = gb.feature_importance();
  }
  ASSERT_FALSE(ref_pred.empty());

  for (const std::size_t group_rows : {64u, 4096u}) {
    const std::string path = write_code_store(dir_, t, y, group_rows);
    StoreError err;
    auto reader = StoreReader::open(path, &err);
    ASSERT_TRUE(reader) << err.message;
    std::vector<std::size_t> code_cols;
    for (std::size_t c = 0; c < kCols; ++c) code_cols.push_back(c);
    const PagedCodeSource paged(*reader, code_cols);

    for (const std::size_t width : {1u, 2u, 7u}) {
      ScopedThreads scoped(width);
      ml::GradientBoosting gb(cfg);
      gb.fit_binned(paged, y, kClasses);
      EXPECT_EQ(gb.predict(x), ref_pred)
          << "group_rows=" << group_rows << " threads=" << width;
      EXPECT_EQ(gb.feature_importance(), ref_imp)
          << "group_rows=" << group_rows << " threads=" << width;
    }
  }
}

TEST_F(PagedFitTest, BinnedMatrixAsSourceMatchesResidentCodes) {
  // ml::BinnedMatrix is itself a BinnedColumnSource; feeding it to
  // fit_binned must agree with the extracted resident codes — the sketch,
  // the codes and the source plumbing are one contract.
  const ml::Matrix x = make_x();
  const std::vector<int> y = make_y();
  const ml::BinnedMatrix bm(x, kBins);
  const CodeTable t = quantize(x);
  const ResidentCodeSource resident(t.codes, t.cuts);

  ml::ForestConfig cfg;
  cfg.num_trees = 3;
  cfg.seed = 5;
  cfg.tree.max_depth = 5;
  cfg.tree.histogram_bins = kBins;

  ScopedThreads one(1);
  ml::RandomForest a(cfg), b(cfg);
  a.fit_binned(bm, y, kClasses);
  b.fit_binned(resident, y, kClasses);
  EXPECT_EQ(a.predict(x), b.predict(x));
  EXPECT_EQ(a.feature_importance(), b.feature_importance());
}

TEST_F(PagedFitTest, CodePastItsCutsFailsTheFit) {
  // The last feature's packed histogram slot ends the buffer: a code past
  // its cuts would write beyond it. The page load must refuse it instead.
  const ml::Matrix x = make_x();
  const std::vector<int> y = make_y();
  CodeTable t = quantize(x);
  t.codes[kCols - 1][kRows / 2] =
      static_cast<std::uint8_t>(t.cuts[kCols - 1].size() + 1);
  const std::string path = write_code_store(dir_, t, y, 64);
  StoreError err;
  auto reader = StoreReader::open(path, &err);
  ASSERT_TRUE(reader) << err.message;
  std::vector<std::size_t> code_cols;
  for (std::size_t c = 0; c < kCols; ++c) code_cols.push_back(c);
  const PagedCodeSource paged(*reader, code_cols);

  ml::ForestConfig cfg;
  cfg.num_trees = 2;
  cfg.tree.histogram_bins = kBins;
  for (const std::size_t width : {1u, 7u}) {
    ScopedThreads scoped(width);
    ml::RandomForest rf(cfg);
    EXPECT_THROW(rf.fit_binned(paged, y, kClasses), core::RunError)
        << "threads=" << width;
  }
}

TEST_F(PagedFitTest, OneBinColumnIsNeverRead) {
  // A constant feature records no cuts, so its page cannot be range-checked;
  // fits must not read it. Any byte there leaves the model unchanged.
  const ml::Matrix x = make_x();
  const std::vector<int> y = make_y();
  CodeTable t = quantize(x);
  t.cuts[0].clear();
  std::fill(t.codes[0].begin(), t.codes[0].end(), std::uint8_t{0});
  const ResidentCodeSource clean(t.codes, t.cuts);
  // Code 1 would land in the next slot, 255 past the buffer's end.
  for (std::size_t r = 0; r < kRows; r += 3) t.codes[0][r] = 1;
  t.codes[0][kRows / 2] = 255;
  const std::string path = write_code_store(dir_, t, y, 64);
  StoreError err;
  auto reader = StoreReader::open(path, &err);
  ASSERT_TRUE(reader) << err.message;
  std::vector<std::size_t> code_cols;
  for (std::size_t c = 0; c < kCols; ++c) code_cols.push_back(c);
  const PagedCodeSource paged(*reader, code_cols);

  ml::ForestConfig forest_cfg;
  forest_cfg.num_trees = 4;
  forest_cfg.seed = 3;
  forest_cfg.tree.histogram_bins = kBins;
  ml::RandomForest want(forest_cfg), got(forest_cfg);
  want.fit_binned(clean, y, kClasses);
  got.fit_binned(paged, y, kClasses);
  EXPECT_EQ(got.predict(x), want.predict(x));
  EXPECT_EQ(got.feature_importance(), want.feature_importance());

  ml::GbdtConfig gbdt_cfg;
  gbdt_cfg.rounds = 4;
  ml::GradientBoosting want_gb(gbdt_cfg), got_gb(gbdt_cfg);
  want_gb.fit_binned(clean, y, kClasses);
  got_gb.fit_binned(paged, y, kClasses);
  EXPECT_EQ(got_gb.predict(x), want_gb.predict(x));
}

}  // namespace
}  // namespace sugar::dataset
