// Streaming gate for the out-of-core fit. A 96 MB synthetic code store
// (3M rows x 32 code columns) is fit resident in this process and paged in
// a child process whose page cache is pinned to 4 MB, at SUGAR_THREADS =
// 1, 2 and 7. All six model digests must be identical, and every paged
// child's peak RSS must stay below the store's payload bytes: the fit
// streams instead of materializing. ru_maxrss is process-monotone, so only
// a fresh process can show a paged peak — not this one, which holds the
// resident codes.
//
//   sugar_ooc_stream                      run the gate
//   sugar_ooc_stream --paged-fit <store>  the child: fit paged, then print
//                                         "paged-fit <digest>
//                                         <peak_rss_bytes> <payload_bytes>"
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/artifact.h"
#include "core/pager.h"
#include "core/splitmix.h"
#include "core/threadpool.h"
#include "dataset/store.h"
#include "ml/binned.h"
#include "ml/forest.h"
#include "ml/matrix.h"

namespace sugar::dataset {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kRows = 3000000;
constexpr std::size_t kCols = 32;
constexpr int kBins = 64;
constexpr int kClasses = 6;
constexpr std::size_t kGroupRows = 65536;
constexpr std::size_t kCacheMb = 4;
constexpr std::size_t kProbeRows = 4096;

class ScopedThreads {
 public:
  explicit ScopedThreads(std::size_t n) { core::set_global_threads(n); }
  ~ScopedThreads() { core::set_global_threads(0); }
};

int label(std::uint64_t r) {
  return static_cast<int>(core::splitmix64(r * 2 + 1) % kClasses);
}

/// Hash noise plus a class-dependent shift, so the forest has real splits
/// to find (all-leaf trees would make the digest gate vacuous).
float value(std::uint64_t r, std::size_t c) {
  const int y = label(r);
  const std::uint64_t h = core::splitmix64((r << 8) ^ (c * 0x9E37u + 3));
  const float base =
      static_cast<float>(h & 0xFFFFFu) / static_cast<float>(1u << 20);
  return base + 0.35f * static_cast<float>(
                            (static_cast<std::size_t>(y) * 7 + c) % 5);
}

ml::ForestConfig forest_config() {
  ml::ForestConfig cfg;
  cfg.num_trees = 2;
  cfg.seed = 29;
  cfg.tree.max_depth = 8;
  cfg.tree.features_per_split = 6;
  cfg.tree.histogram_bins = kBins;
  return cfg;
}

template <typename T>
std::string hex_digest(const std::vector<T>& v) {
  return core::hex64(core::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T))));
}

/// Model fingerprint: predictions on a probe block of rows past the
/// training range, plus the bit pattern of the importance vector.
std::string digest(const ml::RandomForest& forest) {
  ml::Matrix probe(kProbeRows, kCols);
  for (std::size_t r = 0; r < kProbeRows; ++r)
    for (std::size_t c = 0; c < kCols; ++c)
      probe(r, c) = value(kRows + r, c);
  return hex_digest(forest.predict(probe)) + "/" +
         hex_digest(forest.feature_importance());
}

int run_paged_fit(const std::string& store_path) {
  StoreError err;
  auto reader = StoreReader::open(store_path, &err);
  if (!reader) {
    std::fprintf(stderr, "paged-fit: open failed: %s\n", err.message.c_str());
    return 2;
  }
  const int ycol = reader->column("y");
  if (ycol < 0) {
    std::fprintf(stderr, "paged-fit: store has no \"y\" column\n");
    return 2;
  }
  std::vector<int> y;
  y.reserve(reader->rows());
  ColumnCursor cursor(*reader, static_cast<std::size_t>(ycol));
  ColumnBlock blk;
  while (cursor.next(blk, &err))
    for (std::uint32_t i = 0; i < blk.nrows; ++i)
      y.push_back(blk.as<std::int32_t>()[i]);
  if (err) {
    std::fprintf(stderr, "paged-fit: label scan failed: %s\n",
                 err.message.c_str());
    return 2;
  }
  std::vector<std::size_t> code_cols(kCols);
  std::iota(code_cols.begin(), code_cols.end(), std::size_t{0});
  const PagedCodeSource src(*reader, code_cols);
  ml::RandomForest forest(forest_config());
  forest.fit_binned(src, y, kClasses);
  std::printf("paged-fit %s %zu %llu\n", digest(forest).c_str(),
              core::peak_rss_bytes(),
              static_cast<unsigned long long>(reader->payload_bytes()));
  return 0;
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (char ch : s) {
    if (ch == '\'')
      out += "'\\''";
    else
      out += ch;
  }
  return out + "'";
}

struct PagedRun {
  std::string digest;  // empty when the child failed
  std::size_t peak_rss = 0;
  std::uint64_t payload = 0;
};

/// Fits `store` paged in a child at pool width `threads`. ASan's quarantine
/// is off in the child, so evicted cache pages go back to the allocator
/// instead of being held; the bound then measures the fit, not the
/// sanitizer. Builds without ASan ignore the variable.
PagedRun run_paged_child(std::size_t threads, const std::string& store) {
  const char* asan = std::getenv("ASAN_OPTIONS");
  const std::string cmd =
      "SUGAR_THREADS=" + std::to_string(threads) +
      " SUGAR_PAGE_CACHE_MB=" + std::to_string(kCacheMb) + " ASAN_OPTIONS=" +
      shell_quote(std::string(asan ? asan : "") + ":quarantine_size_mb=0") +
      " " + shell_quote(fs::read_symlink("/proc/self/exe").string()) +
      " --paged-fit " + shell_quote(store);
  PagedRun run;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (!pipe) return run;
  std::string out;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), pipe)) out += buf;
  if (::pclose(pipe) != 0) return run;
  std::istringstream lines(out);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string tag;
    PagedRun r;
    if (fields >> tag >> r.digest >> r.peak_rss >> r.payload &&
        tag == "paged-fit")
      run = r;
  }
  return run;
}

TEST(OocStream, PagedFitStreamsAndMatchesResidentAtEveryWidth) {
  struct TempStore {
    fs::path path =
        fs::temp_directory_path() /
        ("sugar_ooc_stream_" + std::to_string(::getpid()) + ".sugc");
    ~TempStore() {
      std::error_code ec;
      fs::remove(path, ec);
    }
  } store;

  // Pass 1: the cuts BinnedMatrix would derive, sketched row by row.
  std::vector<std::vector<float>> cuts(kCols);
  {
    std::vector<ml::ColumnSketch> sketches;
    sketches.reserve(kCols);
    for (std::size_t c = 0; c < kCols; ++c) sketches.emplace_back(kBins);
    for (std::uint64_t r = 0; r < kRows; ++r)
      for (std::size_t c = 0; c < kCols; ++c) sketches[c].add(value(r, c));
    for (std::size_t c = 0; c < kCols; ++c) cuts[c] = sketches[c].finalize();
  }

  // Pass 2: write the code store and keep the same codes resident.
  std::vector<ColumnSpec> schema;
  for (std::size_t c = 0; c < kCols; ++c)
    schema.push_back({"f" + std::to_string(c), ColumnType::U8, cuts[c]});
  schema.push_back({"y", ColumnType::I32, {}});
  StoreWriter::Options wopts;
  wopts.group_rows = kGroupRows;
  wopts.bins = kBins;
  StoreWriter writer(store.path.string(), schema, wopts);
  std::vector<std::vector<std::uint8_t>> codes(kCols);
  for (auto& col : codes) col.reserve(kRows);
  std::vector<int> y;
  y.reserve(kRows);
  StoreError err;
  for (std::uint64_t r = 0; r < kRows && !err; ++r) {
    for (std::size_t c = 0; c < kCols; ++c) {
      const auto code =
          static_cast<std::uint8_t>(ml::quantize_bin(cuts[c], value(r, c)));
      writer.add_u8(c, code);
      codes[c].push_back(code);
    }
    y.push_back(label(r));
    writer.add_i32(kCols, y.back());
    writer.end_row(&err);
  }
  if (!err) writer.finalize(&err);
  ASSERT_FALSE(err) << err.message;
  const ResidentCodeSource resident(std::move(codes), cuts);

  for (const std::size_t w : {1, 2, 7}) {
    std::string resident_digest;
    {
      ScopedThreads threads(w);
      ml::RandomForest forest(forest_config());
      forest.fit_binned(resident, y, kClasses);
      resident_digest = digest(forest);
    }
    const PagedRun paged = run_paged_child(w, store.path.string());
    ASSERT_FALSE(paged.digest.empty()) << "paged child failed at width " << w;
    std::printf("width %zu: paged child peak RSS %.1f MB, payload %.1f MB\n", w,
                static_cast<double>(paged.peak_rss) / 1048576.0,
                static_cast<double>(paged.payload) / 1048576.0);
    EXPECT_EQ(paged.digest, resident_digest) << "width " << w;
    EXPECT_GT(paged.peak_rss, 0u) << "width " << w;
    EXPECT_LT(paged.peak_rss, paged.payload)
        << "width " << w << ": the paged fit did not stream";
  }
}

}  // namespace
}  // namespace sugar::dataset

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--paged-fit") == 0)
    return sugar::dataset::run_paged_fit(argv[2]);
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
