// SUGC v1: the packed on-disk columnar store behind the out-of-core
// pipeline (trafficgen → clean → split → featurize → fit at dataset sizes
// 10–100× RAM). One file holds a table of typed columns; each column is
// chopped into fixed-row-count pages (one page per column per row group),
// every page payload starts on a 64-byte boundary and carries its own
// CRC32, and a footer indexes all pages so readers open in O(footer).
//
// Layout (headers, footer and trailer are little-endian, written and read
// through net::ByteWriter / ByteReader; column payloads are raw x86-64
// arrays, read in place):
//
//   [file header, 64 B]   magic "SUGC", u32 version=1, zero pad
//   [page]*                64-B-aligned: 32-B page header (magic "SGPG",
//                          u32 col, u64 first_row, u32 nrows,
//                          u32 payload_bytes, u32 payload_crc, u32 pad)
//                          + 32 B zero pad, then the payload, then pad to
//                          the next 64-B boundary
//   [footer]               schema (names, types, per-column cuts), store
//                          bins, total rows, group_rows, page index
//                          (col, first_row, nrows, offset, bytes, crc)
//   [trailer, 16 B]        u64 footer_offset, u32 footer_crc, magic "SUGF"
//
// Writers stream: rows are buffered column-wise for one group, flushed as
// pages through core::Io::append_file onto `<path>.tmp`, and finalize()
// commits with Io::commit_temp — so a producer's resident footprint is one
// row group regardless of dataset size, and a crash mid-write never leaves
// a half-visible store. Readers pread() pages on demand through
// core::PageCache (budgeted by SUGAR_PAGE_CACHE_MB), verifying each page's
// CRC on load; datasets that fit in one group degrade to a single resident
// page per column, so tiny (bench_smoke) scales never touch the cache
// machinery beyond one miss per column.
//
// Every structural failure (bad magic, truncation, CRC mismatch, absurd
// counts) surfaces as a typed StoreError — corrupt input is an error
// return, never UB.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/io.h"
#include "core/pager.h"
#include "ml/binned.h"
#include "net/bytes.h"

namespace sugar::dataset {

namespace detail {
/// Shared fd ownership between a StoreReader and its in-flight page
/// loaders (prefetch jobs can outlive the reader). Defined in store.cpp.
struct FileHandle;
}  // namespace detail

enum class ColumnType : std::uint8_t { U8 = 0, I32 = 1, F32 = 2, U64 = 3, Bytes = 4 };

/// Bytes of one element for fixed-width types; 0 for Bytes columns.
std::size_t column_elem_size(ColumnType t);

struct ColumnSpec {
  std::string name;
  ColumnType type = ColumnType::F32;
  /// Pre-binned code columns (U8) record the quantization cuts they were
  /// coded against, so a fit can rebuild thresholds without the raw floats.
  std::vector<float> cuts;
};

enum class StoreErrorKind {
  kNone = 0,
  kIo,         // open/read/write/rename failure
  kBadMagic,   // header or trailer magic mismatch
  kBadVersion, // format version this build does not speak
  kTruncated,  // file shorter than its own structures claim
  kBadFooter,  // footer fails structural validation
  kFooterCrc,  // footer bytes fail their CRC
  kPageCrc,    // page payload fails its CRC
  kBadSchema,  // column/type/usage mismatch
};

const char* to_string(StoreErrorKind kind);

struct StoreError {
  StoreErrorKind kind = StoreErrorKind::kNone;
  std::string message;

  [[nodiscard]] explicit operator bool() const {
    return kind != StoreErrorKind::kNone;
  }
};

/// Streaming writer. Append one value per column, then end_row(); groups
/// flush automatically. finalize() writes the footer and atomically
/// commits `<path>` (temp-then-rename through the injected Io, so the
/// chaos harness covers every byte of the path to disk).
class StoreWriter {
 public:
  struct Options {
    /// Rows per page group — the page-size knob (a U8 column's page is
    /// group_rows bytes, an F32 column's 4× that).
    std::size_t group_rows = 65536;
    /// Histogram resolution code columns were quantized at (metadata,
    /// read back by StoreReader::bins()); 0 when the store carries no codes.
    int bins = 0;
    core::Io* io = nullptr;  // default: real_io()
  };

  StoreWriter(std::string path, std::vector<ColumnSpec> schema, Options opts);
  StoreWriter(std::string path, std::vector<ColumnSpec> schema)
      : StoreWriter(std::move(path), std::move(schema), Options()) {}
  ~StoreWriter();
  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  void add_u8(std::size_t col, std::uint8_t v);
  void add_i32(std::size_t col, std::int32_t v);
  void add_f32(std::size_t col, float v);
  void add_u64(std::size_t col, std::uint64_t v);
  void add_bytes(std::size_t col, std::span<const std::uint8_t> v);

  /// Closes the current row; every column must have received exactly one
  /// value since the previous end_row. Flushes a full group to disk.
  bool end_row(StoreError* err = nullptr);

  /// Flushes the tail group, writes footer + trailer, renames the temp
  /// over `path`. The writer is dead afterwards.
  bool finalize(StoreError* err = nullptr);

  [[nodiscard]] std::uint64_t rows() const { return rows_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct ColumnBuf;
  bool flush_group(StoreError* err);
  bool append(const net::ByteWriter& bytes, StoreError* err);

  std::string path_;
  std::vector<ColumnSpec> schema_;
  Options opts_;
  core::Io* io_ = nullptr;
  std::vector<ColumnBuf> bufs_;
  std::uint64_t rows_ = 0;        // rows fully ended
  std::size_t group_count_ = 0;   // rows buffered in the open group
  std::uint64_t offset_ = 0;      // bytes appended to the temp so far
  struct PageEntry {
    std::uint32_t col = 0;
    std::uint64_t first_row = 0;
    std::uint32_t nrows = 0;
    std::uint64_t payload_offset = 0;
    std::uint32_t payload_bytes = 0;
    std::uint32_t crc = 0;
  };
  std::vector<PageEntry> index_;
  bool finalized_ = false;
  bool dead_ = false;  // a failed append poisons the writer
};

/// One column's pinned page, exposed as raw payload bytes. Fixed-width
/// columns: `data` is nrows elements of the column type. Bytes columns:
/// u32 cumulative end offsets[nrows], then the concatenated blob.
struct ColumnBlock {
  const std::uint8_t* data = nullptr;
  std::uint64_t first_row = 0;
  std::uint32_t nrows = 0;

  template <typename T>
  [[nodiscard]] const T* as() const {
    return reinterpret_cast<const T*>(data);
  }
  /// Bytes columns: row `i` (block-relative) of the blob.
  [[nodiscard]] std::span<const std::uint8_t> bytes_at(std::size_t i) const {
    const auto* ends = reinterpret_cast<const std::uint32_t*>(data);
    const std::uint8_t* blob = data + 4u * nrows;
    const std::uint32_t b = i == 0 ? 0 : ends[i - 1];
    return {blob + b, ends[i] - b};
  }
};

/// Random-access reader over a committed store. Page loads go through
/// core::PageCache::global(): each open store draws a process-unique
/// file id, loads verify the page CRC, and close drops the file's pages.
/// Thread-safe for concurrent pins (immutable index + pread).
class StoreReader {
 public:
  ~StoreReader();
  StoreReader(const StoreReader&) = delete;
  StoreReader& operator=(const StoreReader&) = delete;

  /// Opens and fully validates header, trailer, footer and page-index
  /// bounds. Null + `err` on any structural problem.
  static std::unique_ptr<StoreReader> open(const std::string& path,
                                           StoreError* err);

  [[nodiscard]] std::uint64_t rows() const { return rows_; }
  [[nodiscard]] std::size_t group_rows() const { return group_rows_; }
  [[nodiscard]] std::size_t groups() const;
  [[nodiscard]] int bins() const { return bins_; }
  [[nodiscard]] const std::vector<ColumnSpec>& schema() const { return schema_; }
  /// Column index by name; -1 when absent.
  [[nodiscard]] int column(const std::string& name) const;

  /// Pins the page of `col` covering row group `group`. The block stays
  /// valid while `pin` lives. CRC is verified on the load that faults the
  /// page in (hits skip it — the cache holds verified bytes).
  bool pin(std::size_t col, std::size_t group, core::PageCache::Pin& pin,
           ColumnBlock& block, StoreError* err) const;

  /// Lookahead: enqueue an async load of (col, group). Never fails.
  void prefetch(std::size_t col, std::size_t group) const;

  [[nodiscard]] std::size_t group_of(std::uint64_t row) const {
    return static_cast<std::size_t>(row / group_rows_);
  }
  /// Total payload bytes across all pages (the "dataset size" the RSS
  /// gates compare against).
  [[nodiscard]] std::uint64_t payload_bytes() const { return payload_bytes_; }

 private:
  StoreReader() = default;
  /// Builds a PageCache loader for page-index position `page`. Captures
  /// the shared fd handle and entry by value so prefetch jobs stay valid
  /// after the reader is destroyed.
  [[nodiscard]] core::PageCache::Loader make_loader(std::size_t page) const;

  std::string path_;
  std::shared_ptr<detail::FileHandle> fh_;
  int fd_ = -1;
  std::uint64_t file_id_ = 0;
  std::uint64_t rows_ = 0;
  std::size_t group_rows_ = 1;
  int bins_ = 0;
  std::vector<ColumnSpec> schema_;
  struct PageEntry {
    std::uint32_t col = 0;
    std::uint64_t first_row = 0;
    std::uint32_t nrows = 0;
    std::uint64_t payload_offset = 0;
    std::uint32_t payload_bytes = 0;
    std::uint32_t crc = 0;
  };
  std::vector<PageEntry> index_;
  /// index_ position of (col, group): pages_[col * groups() + group].
  std::vector<std::uint32_t> pages_;
  std::uint64_t payload_bytes_ = 0;
};

/// Sequential reader over one column, group by group, prefetching the next
/// page as each is returned.
class ColumnCursor {
 public:
  ColumnCursor(const StoreReader& r, std::size_t col) : r_(&r), col_(col) {}

  /// False at end of column (or on error — check `err`).
  bool next(ColumnBlock& out, StoreError* err = nullptr);

 private:
  const StoreReader* r_;
  std::size_t col_;
  std::size_t group_ = 0;
  core::PageCache::Pin pin_;
};

/// Row-aligned streaming over several columns at once: next() pins the
/// same row group across all requested columns, the unit of work for
/// streamed featurize / label scans.
class RowBlockCursor {
 public:
  RowBlockCursor(const StoreReader& r, std::vector<std::size_t> cols)
      : r_(&r), cols_(std::move(cols)), pins_(cols_.size()) {}

  /// Blocks come back in `cols` order, all covering the same rows.
  bool next(std::vector<ColumnBlock>& out, StoreError* err = nullptr);

 private:
  const StoreReader* r_;
  std::vector<std::size_t> cols_;
  std::vector<core::PageCache::Pin> pins_;
  std::size_t group_ = 0;
};

/// ml::BinnedColumnSource over a store's U8 code columns: the out-of-core
/// fit input. fetch() pins the covering page (the pin rides in the
/// cursor's keepalive), hint() prefetches the next one. A page load
/// failure throws — the tree fit has no partial-data mode.
class PagedCodeSource final : public ml::BinnedColumnSource {
 public:
  /// `code_cols[f]` is the store column holding feature f's codes (must
  /// be U8 with recorded cuts).
  PagedCodeSource(const StoreReader& r, std::vector<std::size_t> code_cols);

  [[nodiscard]] std::size_t rows() const override;
  [[nodiscard]] std::size_t cols() const override { return code_cols_.size(); }
  [[nodiscard]] const std::vector<float>& cuts(std::size_t f) const override;
  [[nodiscard]] ml::CodeChunk fetch(
      std::size_t f, std::size_t row,
      std::shared_ptr<const void>& keepalive) const override;
  void hint(std::size_t f, std::size_t row) const override;

 private:
  const StoreReader* r_;
  std::vector<std::size_t> code_cols_;
};

/// Fully resident BinnedColumnSource: one owned code vector per feature.
/// The in-memory comparator arm of the ooc_stream gate, and the degraded
/// form tiny datasets use when paging buys nothing.
class ResidentCodeSource final : public ml::BinnedColumnSource {
 public:
  ResidentCodeSource(std::vector<std::vector<std::uint8_t>> codes,
                     std::vector<std::vector<float>> cuts)
      : codes_(std::move(codes)), cuts_(std::move(cuts)) {}

  [[nodiscard]] std::size_t rows() const override {
    return codes_.empty() ? 0 : codes_.front().size();
  }
  [[nodiscard]] std::size_t cols() const override { return codes_.size(); }
  [[nodiscard]] const std::vector<float>& cuts(std::size_t f) const override {
    return cuts_[f];
  }
  [[nodiscard]] ml::CodeChunk fetch(
      std::size_t f, std::size_t /*row*/,
      std::shared_ptr<const void>&) const override {
    return {codes_[f].data(), 0, codes_[f].size()};
  }

 private:
  std::vector<std::vector<std::uint8_t>> codes_;
  std::vector<std::vector<float>> cuts_;
};

}  // namespace sugar::dataset
