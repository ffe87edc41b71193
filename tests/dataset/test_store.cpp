// Tests for the SUGC on-disk column store (dataset/store.h): round-trip of
// every column type across multiple row groups, cursor alignment, writer
// misuse and fault injection, and the corruption corpus — truncations,
// random bit flips and targeted footer/payload damage must surface as a
// typed StoreError or leave the data bit-identical; silent corruption and
// UB are the failure modes under test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/artifact.h"
#include "core/chaos.h"
#include "core/crc32.h"
#include "core/runerror.h"
#include "dataset/store.h"

namespace sugar::dataset {
namespace {

namespace fs = std::filesystem;

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sugar_store_" +
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

/// Deterministic reference data: one column of each type, sized to span
/// several row groups (group_rows below is 16, rows is 53 — a ragged tail).
struct Reference {
  std::vector<std::uint8_t> u8;
  std::vector<std::int32_t> i32;
  std::vector<float> f32;
  std::vector<std::uint64_t> u64;
  std::vector<std::vector<std::uint8_t>> bytes;
};

constexpr std::size_t kRows = 53;
constexpr std::size_t kGroupRows = 16;

Reference make_reference() {
  Reference ref;
  for (std::size_t r = 0; r < kRows; ++r) {
    // Codes 0..2: the u8 column records two cuts, so 2 is its largest code.
    ref.u8.push_back(static_cast<std::uint8_t>((r * 7 + 3) % 3));
    ref.i32.push_back(static_cast<std::int32_t>(r) * -91 + 17);
    ref.f32.push_back(static_cast<float>(r) * 0.37f - 5.0f);
    ref.u64.push_back(r * 0x9E3779B97F4A7C15ull);
    // Varying lengths including empty rows.
    std::vector<std::uint8_t> blob;
    for (std::size_t i = 0; i < r % 9; ++i)
      blob.push_back(static_cast<std::uint8_t>(r + i * 31));
    ref.bytes.push_back(std::move(blob));
  }
  return ref;
}

std::vector<ColumnSpec> make_schema() {
  return {{"u8", ColumnType::U8, {0.5f, 1.5f}},
          {"i32", ColumnType::I32, {}},
          {"f32", ColumnType::F32, {}},
          {"u64", ColumnType::U64, {}},
          {"blob", ColumnType::Bytes, {}}};
}

std::string write_reference_store(const fs::path& dir, const Reference& ref) {
  const std::string path = (dir / "ref.sugc").string();
  StoreWriter::Options opts;
  opts.group_rows = kGroupRows;
  opts.bins = 8;
  StoreWriter w(path, make_schema(), opts);
  StoreError err;
  for (std::size_t r = 0; r < kRows; ++r) {
    w.add_u8(0, ref.u8[r]);
    w.add_i32(1, ref.i32[r]);
    w.add_f32(2, ref.f32[r]);
    w.add_u64(3, ref.u64[r]);
    w.add_bytes(4, ref.bytes[r]);
    EXPECT_TRUE(w.end_row(&err)) << err.message;
  }
  EXPECT_TRUE(w.finalize(&err)) << err.message;
  return path;
}

/// Reads the whole store back. nullopt when any pin fails (err receives the
/// first failure); a successful read is compared field-by-field elsewhere.
std::optional<Reference> read_all(const StoreReader& r, StoreError* err) {
  Reference out;
  for (std::size_t col = 0; col < 5; ++col) {
    ColumnCursor cur(r, col);
    ColumnBlock blk;
    StoreError e;
    while (cur.next(blk, &e)) {
      for (std::uint32_t i = 0; i < blk.nrows; ++i) {
        switch (col) {
          case 0: out.u8.push_back(blk.as<std::uint8_t>()[i]); break;
          case 1: out.i32.push_back(blk.as<std::int32_t>()[i]); break;
          case 2: out.f32.push_back(blk.as<float>()[i]); break;
          case 3: out.u64.push_back(blk.as<std::uint64_t>()[i]); break;
          case 4: {
            auto span = blk.bytes_at(i);
            out.bytes.emplace_back(span.begin(), span.end());
            break;
          }
        }
      }
    }
    if (e) {
      if (err) *err = e;
      return std::nullopt;
    }
  }
  return out;
}

bool same(const Reference& a, const Reference& b) {
  return a.u8 == b.u8 && a.i32 == b.i32 && a.u64 == b.u64 &&
         a.bytes == b.bytes &&
         std::equal(a.f32.begin(), a.f32.end(), b.f32.begin(), b.f32.end(),
                    [](float x, float y) {
                      return std::memcmp(&x, &y, sizeof x) == 0;
                    });
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST_F(StoreTest, RoundTripAllColumnTypesAcrossGroups) {
  const Reference ref = make_reference();
  const std::string path = write_reference_store(dir_, ref);

  StoreError err;
  auto r = StoreReader::open(path, &err);
  ASSERT_TRUE(r) << err.message;
  EXPECT_EQ(r->rows(), kRows);
  EXPECT_EQ(r->group_rows(), kGroupRows);
  EXPECT_EQ(r->groups(), (kRows + kGroupRows - 1) / kGroupRows);
  EXPECT_EQ(r->bins(), 8);
  EXPECT_EQ(r->column("blob"), 4);
  EXPECT_EQ(r->column("nope"), -1);
  ASSERT_EQ(r->schema().size(), 5u);
  EXPECT_EQ(r->schema()[0].cuts, (std::vector<float>{0.5f, 1.5f}));
  EXPECT_GT(r->payload_bytes(), 0u);

  auto got = read_all(*r, &err);
  ASSERT_TRUE(got.has_value()) << err.message;
  EXPECT_TRUE(same(ref, *got));
}

TEST_F(StoreTest, RowBlockCursorKeepsColumnsRowAligned) {
  const Reference ref = make_reference();
  const std::string path = write_reference_store(dir_, ref);
  StoreError err;
  auto r = StoreReader::open(path, &err);
  ASSERT_TRUE(r) << err.message;

  RowBlockCursor cur(*r, {0, 3});
  std::vector<ColumnBlock> blocks;
  std::size_t row = 0;
  while (cur.next(blocks, &err)) {
    ASSERT_EQ(blocks.size(), 2u);
    ASSERT_EQ(blocks[0].first_row, blocks[1].first_row);
    ASSERT_EQ(blocks[0].nrows, blocks[1].nrows);
    EXPECT_EQ(blocks[0].first_row, row);
    for (std::uint32_t i = 0; i < blocks[0].nrows; ++i) {
      EXPECT_EQ(blocks[0].as<std::uint8_t>()[i], ref.u8[row + i]);
      EXPECT_EQ(blocks[1].as<std::uint64_t>()[i], ref.u64[row + i]);
    }
    row += blocks[0].nrows;
  }
  EXPECT_FALSE(err) << err.message;
  EXPECT_EQ(row, kRows);
}

TEST_F(StoreTest, EndRowWithMissingColumnFails) {
  const std::string path = (dir_ / "partial.sugc").string();
  StoreWriter w(path, make_schema());
  w.add_u8(0, 1);  // the other four columns never receive a value
  StoreError err;
  EXPECT_FALSE(w.end_row(&err));
  EXPECT_EQ(err.kind, StoreErrorKind::kBadSchema);
}

TEST_F(StoreTest, OpenMissingFileIsIoError) {
  StoreError err;
  EXPECT_FALSE(StoreReader::open((dir_ / "absent.sugc").string(), &err));
  EXPECT_EQ(err.kind, StoreErrorKind::kIo);
}

TEST_F(StoreTest, ChaosIoFailuresPoisonTheWriterAndCommitNothing) {
  core::ChaosConfig cfg;
  cfg.seed = 11;
  cfg.with(core::ChaosSite::kIoWriteFail, 1.0);  // every append refused
  core::ChaosInjector chaos(cfg);
  core::ChaosIo io(chaos);
  const std::string path = (dir_ / "chaos.sugc").string();
  StoreWriter::Options opts;
  opts.group_rows = 4;
  opts.io = &io;
  StoreWriter w(path, {{"v", ColumnType::U8, {}}}, opts);
  StoreError err;
  bool failed = false;
  for (std::size_t r = 0; r < 16 && !failed; ++r) {
    w.add_u8(0, static_cast<std::uint8_t>(r));
    failed = !w.end_row(&err);
  }
  if (!failed) failed = !w.finalize(&err);
  EXPECT_TRUE(failed);
  EXPECT_EQ(err.kind, StoreErrorKind::kIo);
  EXPECT_FALSE(fs::exists(path));  // nothing half-visible committed
}

TEST_F(StoreTest, PagedCodeSourceRejectsNonCodeColumn) {
  const Reference ref = make_reference();
  const std::string path = write_reference_store(dir_, ref);
  StoreError err;
  auto r = StoreReader::open(path, &err);
  ASSERT_TRUE(r) << err.message;
  EXPECT_THROW(PagedCodeSource(*r, {1}), core::RunError);  // i32, not U8
}

// ---- corruption corpus --------------------------------------------------

TEST_F(StoreTest, CodePastItsCutsIsATypedPinError) {
  // CRC-valid but hostile: row 9 holds code 3 in a column with two cuts
  // (codes 0..2). Its page must fail to load; the other pages still serve.
  const std::string path = (dir_ / "code.sugc").string();
  StoreWriter::Options opts;
  opts.group_rows = 4;
  opts.bins = 3;
  StoreWriter w(path, {{"code", ColumnType::U8, {0.5f, 1.5f}}}, opts);
  StoreError err;
  for (std::size_t r = 0; r < 12; ++r) {
    w.add_u8(0, static_cast<std::uint8_t>(r == 9 ? 3 : r % 3));
    ASSERT_TRUE(w.end_row(&err)) << err.message;
  }
  ASSERT_TRUE(w.finalize(&err)) << err.message;
  auto r = StoreReader::open(path, &err);
  ASSERT_TRUE(r) << err.message;

  ColumnCursor cur(*r, 0);
  ColumnBlock blk;
  std::size_t served = 0;
  while (cur.next(blk, &err)) served += blk.nrows;
  EXPECT_EQ(served, 8u) << "groups 0 and 1 are in range";
  EXPECT_EQ(err.kind, StoreErrorKind::kBadSchema) << err.message;

  const PagedCodeSource paged(*r, {0});
  std::shared_ptr<const void> keepalive;
  EXPECT_EQ(paged.fetch(0, 5, keepalive).data[1], 2u);
  EXPECT_THROW((void)paged.fetch(0, 9, keepalive), core::RunError);
}

// The bytes of the reference store (every column type, several row groups
// with a ragged tail, a code column's cuts) are pinned, so the on-disk
// format cannot drift under a change to its codec.
TEST_F(StoreTest, FileBytesPinned) {
  const std::string bytes = slurp(write_reference_store(dir_, make_reference()));
  EXPECT_EQ(bytes.size(), 3818u);
  EXPECT_EQ(core::fnv1a64(bytes), 0xb79c727aca149c92ull);
}

TEST_F(StoreTest, TruncationAtEveryStrideIsATypedOpenError) {
  const Reference ref = make_reference();
  const std::string path = write_reference_store(dir_, ref);
  const std::string original = slurp(path);
  ASSERT_GT(original.size(), 128u);
  const std::string victim = (dir_ / "trunc.sugc").string();

  std::set<std::size_t> cuts{0, 1, 63, 64, 65, original.size() - 1,
                             original.size() - 17};
  for (std::size_t c = 2; c < original.size(); c += original.size() / 41)
    cuts.insert(c);
  std::vector<std::string> kinds;
  for (std::size_t cut : cuts) {
    spit(victim, original.substr(0, cut));
    StoreError err;
    auto r = StoreReader::open(victim, &err);
    EXPECT_FALSE(r) << "truncation to " << cut << " bytes opened cleanly";
    EXPECT_NE(err.kind, StoreErrorKind::kNone) << "cut " << cut;
    kinds.push_back(to_string(err.kind));
  }
  // Each cut, in ascending order, keeps the error it had when the codec was
  // first pinned: files shorter than header + trailer are truncated, and
  // every longer cut loses the trailer magic.
  std::vector<std::string> want(6, "truncated");
  want.resize(49, "bad-magic");
  EXPECT_EQ(kinds, want);

  // Trailing garbage displaces the trailer: also a typed failure.
  spit(victim, original + std::string(40, '\x5a'));
  StoreError err;
  EXPECT_FALSE(StoreReader::open(victim, &err));
  EXPECT_NE(err.kind, StoreErrorKind::kNone);
}

TEST_F(StoreTest, BitFlipsAreDetectedOrHarmless) {
  const Reference ref = make_reference();
  const std::string path = write_reference_store(dir_, ref);
  const std::string original = slurp(path);
  const std::string victim = (dir_ / "flip.sugc").string();

  std::set<StoreErrorKind> kinds_seen;
  const std::size_t step = std::max<std::size_t>(1, original.size() / 211);
  for (std::size_t off = 0; off < original.size(); off += step) {
    std::string bytes = original;
    bytes[off] = static_cast<char>(bytes[off] ^ 0x10);
    spit(victim, bytes);
    StoreError err;
    auto r = StoreReader::open(victim, &err);
    if (!r) {
      // Rejected at open: structural damage, properly typed.
      EXPECT_NE(err.kind, StoreErrorKind::kNone) << "offset " << off;
      kinds_seen.insert(err.kind);
      continue;
    }
    StoreError read_err;
    auto got = read_all(*r, &read_err);
    if (!got.has_value()) {
      // Rejected at pin time: payload damage caught by the page CRC.
      EXPECT_EQ(read_err.kind, StoreErrorKind::kPageCrc) << "offset " << off;
      kinds_seen.insert(read_err.kind);
      continue;
    }
    // The flip landed in padding or write-side redundancy: the data served
    // must be bit-identical to the original. Anything else is silent
    // corruption — the exact failure mode the CRCs exist to prevent.
    EXPECT_TRUE(same(ref, *got)) << "silent corruption at offset " << off;
  }
  // The strided corpus must have exercised both detection layers.
  EXPECT_TRUE(kinds_seen.count(StoreErrorKind::kPageCrc))
      << "no flip landed in a page payload";
  EXPECT_GT(kinds_seen.size(), 1u) << "no flip damaged the footer or trailer";
}

TEST_F(StoreTest, TrailerAndFooterDamageAreTypedOpenErrors) {
  const Reference ref = make_reference();
  const std::string path = write_reference_store(dir_, ref);
  const std::string original = slurp(path);
  const std::string victim = (dir_ / "footer.sugc").string();

  // Trailer magic destroyed.
  std::string bytes = original;
  bytes[bytes.size() - 1] = 'X';
  spit(victim, bytes);
  StoreError err;
  EXPECT_FALSE(StoreReader::open(victim, &err));
  EXPECT_EQ(err.kind, StoreErrorKind::kBadMagic);

  // Footer offset pointing past the end of the file.
  bytes = original;
  for (std::size_t i = 0; i < 8; ++i)
    bytes[bytes.size() - 16 + i] = '\x7f';
  spit(victim, bytes);
  EXPECT_FALSE(StoreReader::open(victim, &err));
  EXPECT_EQ(err.kind, StoreErrorKind::kBadFooter);

  // Trailer: footer offset u64, footer CRC u32, magic. The footer runs
  // from its offset to the trailer and ends with the page index, 32 bytes
  // per page: col u32, first_row u64, nrows u32, payload offset u64,
  // payload bytes u32, CRC u32.
  const std::size_t trailer = original.size() - 16;
  std::uint64_t footer_offset = 0;
  for (int i = 7; i >= 0; --i)
    footer_offset = footer_offset << 8 | static_cast<std::uint8_t>(original[trailer + i]);
  ASSERT_LT(footer_offset + 32, trailer);

  // A flipped footer byte fails the footer CRC.
  bytes = original;
  bytes[footer_offset] = static_cast<char>(bytes[footer_offset] ^ 0x01);
  spit(victim, bytes);
  EXPECT_FALSE(StoreReader::open(victim, &err));
  EXPECT_EQ(err.kind, StoreErrorKind::kFooterCrc);

  // A last page entry out of range under a recomputed, valid footer CRC:
  // structural validation, not the CRC, must reject it.
  const auto put_le = [](std::string& b, std::size_t at, std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) b[at + i] = static_cast<char>(v >> (8 * i));
  };
  const std::size_t last_page = trailer - 32;
  for (const auto& [field, width, value] :
       {std::tuple{last_page, 4, std::uint64_t{0xFFFFFFFF}},  // column
        std::tuple{last_page + 16, 8, std::uint64_t{footer_offset}}}) {  // payload
    bytes = original;
    put_le(bytes, field, value, width);
    const auto* footer = reinterpret_cast<const std::uint8_t*>(bytes.data()) + footer_offset;
    put_le(bytes, trailer + 8, core::crc32({footer, trailer - footer_offset}), 4);
    spit(victim, bytes);
    EXPECT_FALSE(StoreReader::open(victim, &err)) << "field at " << field;
    EXPECT_EQ(err.kind, StoreErrorKind::kBadFooter) << "field at " << field;
  }

  // Header magic destroyed.
  bytes = original;
  bytes[0] = 'Z';
  spit(victim, bytes);
  EXPECT_FALSE(StoreReader::open(victim, &err));
  EXPECT_EQ(err.kind, StoreErrorKind::kBadMagic);

  // Version this build does not speak.
  bytes = original;
  bytes[4] = '\x09';
  spit(victim, bytes);
  EXPECT_FALSE(StoreReader::open(victim, &err));
  EXPECT_EQ(err.kind, StoreErrorKind::kBadVersion);
}

}  // namespace
}  // namespace sugar::dataset
