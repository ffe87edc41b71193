#include "dataset/store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "core/crc32.h"
#include "core/runerror.h"
#include "core/trace.h"
#include "net/bytes.h"

namespace sugar::dataset {
namespace {

constexpr std::string_view kFileMagic = "SUGC";
constexpr std::string_view kPageMagic = "SGPG";
constexpr std::string_view kTrailerMagic = "SUGF";
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kPageHeaderBytes = 64;  // 32 header + 32 pad
constexpr std::size_t kTrailerBytes = 16;
// Structural sanity ceilings: corrupt footers must fail fast, not drive
// multi-gigabyte allocations.
constexpr std::uint64_t kMaxCols = 1u << 20;
constexpr std::uint64_t kMaxPages = 1u << 30;

std::span<const std::uint8_t> bytes_of(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

void set_error(StoreError* err, StoreErrorKind kind, std::string message) {
  if (err) *err = {kind, std::move(message)};
}

std::uint32_t page_crc(std::span<const std::uint8_t> payload) {
  return core::crc32(payload);
}

bool pread_all(int fd, std::uint8_t* out, std::size_t n, std::uint64_t off) {
  std::size_t done = 0;
  while (done < n) {
    ssize_t r = ::pread(fd, out + done, n - done,
                        static_cast<off_t>(off + done));
    if (r <= 0) return false;  // 0 = EOF short of n = truncated
    done += static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

namespace detail {
struct FileHandle {
  int fd = -1;
  ~FileHandle() {
    if (fd >= 0) ::close(fd);
  }
};
}  // namespace detail
using detail::FileHandle;

std::size_t column_elem_size(ColumnType t) {
  switch (t) {
    case ColumnType::U8: return 1;
    case ColumnType::I32: return 4;
    case ColumnType::F32: return 4;
    case ColumnType::U64: return 8;
    case ColumnType::Bytes: return 0;
  }
  return 0;
}

const char* to_string(StoreErrorKind kind) {
  switch (kind) {
    case StoreErrorKind::kNone: return "none";
    case StoreErrorKind::kIo: return "io";
    case StoreErrorKind::kBadMagic: return "bad-magic";
    case StoreErrorKind::kBadVersion: return "bad-version";
    case StoreErrorKind::kTruncated: return "truncated";
    case StoreErrorKind::kBadFooter: return "bad-footer";
    case StoreErrorKind::kFooterCrc: return "footer-crc";
    case StoreErrorKind::kPageCrc: return "page-crc";
    case StoreErrorKind::kBadSchema: return "bad-schema";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// StoreWriter

struct StoreWriter::ColumnBuf {
  std::vector<std::uint8_t> fixed;   // fixed-width payload bytes
  std::vector<std::uint32_t> ends;   // Bytes: cumulative end offsets
  std::vector<std::uint8_t> blob;    // Bytes: concatenated values
  std::size_t count = 0;             // values received in the open group
};

StoreWriter::StoreWriter(std::string path, std::vector<ColumnSpec> schema,
                         Options opts)
    : path_(std::move(path)),
      schema_(std::move(schema)),
      opts_(opts),
      io_(opts.io ? opts.io : &core::real_io()),
      bufs_(schema_.size()) {
  if (opts_.group_rows == 0) opts_.group_rows = 1;
  // A stale temp from a crashed writer must not prepend garbage.
  io_->remove_file(path_ + ".tmp");
}

StoreWriter::~StoreWriter() {
  if (!finalized_) io_->remove_file(path_ + ".tmp");
}

void StoreWriter::add_u8(std::size_t col, std::uint8_t v) {
  auto& b = bufs_[col];
  b.fixed.push_back(v);
  ++b.count;
}

void StoreWriter::add_i32(std::size_t col, std::int32_t v) {
  auto& b = bufs_[col];
  const std::size_t n = b.fixed.size();
  b.fixed.resize(n + 4);
  std::memcpy(b.fixed.data() + n, &v, 4);
  ++b.count;
}

void StoreWriter::add_f32(std::size_t col, float v) {
  auto& b = bufs_[col];
  const std::size_t n = b.fixed.size();
  b.fixed.resize(n + 4);
  std::memcpy(b.fixed.data() + n, &v, 4);
  ++b.count;
}

void StoreWriter::add_u64(std::size_t col, std::uint64_t v) {
  auto& b = bufs_[col];
  const std::size_t n = b.fixed.size();
  b.fixed.resize(n + 8);
  std::memcpy(b.fixed.data() + n, &v, 8);
  ++b.count;
}

void StoreWriter::add_bytes(std::size_t col, std::span<const std::uint8_t> v) {
  auto& b = bufs_[col];
  b.blob.insert(b.blob.end(), v.begin(), v.end());
  b.ends.push_back(static_cast<std::uint32_t>(b.blob.size()));
  ++b.count;
}

bool StoreWriter::append(const net::ByteWriter& bytes, StoreError* err) {
  if (dead_) {
    set_error(err, StoreErrorKind::kIo, "store writer poisoned by earlier failure");
    return false;
  }
  auto as_chars = [](const net::ByteWriter& w) {
    return std::string_view(reinterpret_cast<const char*>(w.data().data()), w.size());
  };
  std::string io_err;
  if (offset_ == 0) {
    // First bytes: the 64-byte file header leads the temp.
    net::ByteWriter header(kHeaderBytes);
    header.bytes(bytes_of(kFileMagic));
    header.u32le(kVersion);
    header.zeros(kHeaderBytes - header.size());
    if (!io_->append_file(path_ + ".tmp", as_chars(header), &io_err)) {
      dead_ = true;
      set_error(err, StoreErrorKind::kIo, io_err);
      return false;
    }
    offset_ = kHeaderBytes;
  }
  if (!io_->append_file(path_ + ".tmp", as_chars(bytes), &io_err)) {
    dead_ = true;
    set_error(err, StoreErrorKind::kIo, io_err);
    return false;
  }
  offset_ += bytes.size();
  return true;
}

bool StoreWriter::flush_group(StoreError* err) {
  if (group_count_ == 0) return true;
  SUGAR_TRACE_SPAN("dataset.store.flush_group");
  const std::uint64_t first_row = rows_ - group_count_;
  net::ByteWriter out;
  for (std::size_t c = 0; c < schema_.size(); ++c) {
    ColumnBuf& b = bufs_[c];
    // Assemble payload. Bytes columns: cumulative ends then the blob.
    std::span<const std::uint8_t> payload;
    std::vector<std::uint8_t> bytes_payload;
    if (schema_[c].type == ColumnType::Bytes) {
      bytes_payload.resize(4 * b.ends.size() + b.blob.size());
      std::memcpy(bytes_payload.data(), b.ends.data(), 4 * b.ends.size());
      std::memcpy(bytes_payload.data() + 4 * b.ends.size(), b.blob.data(),
                  b.blob.size());
      payload = bytes_payload;
    } else {
      payload = b.fixed;
    }
    const std::uint32_t crc = page_crc(payload);
    // 32-byte page header + 32 bytes pad: payload starts 64-byte aligned
    // because every page starts on a 64-byte boundary.
    const std::size_t page_start = out.size();
    out.bytes(bytes_of(kPageMagic));
    out.u32le(static_cast<std::uint32_t>(c));
    out.u64le(first_row);
    out.u32le(static_cast<std::uint32_t>(group_count_));
    out.u32le(static_cast<std::uint32_t>(payload.size()));
    out.u32le(crc);
    out.zeros(page_start + kPageHeaderBytes - out.size());
    index_.push_back({static_cast<std::uint32_t>(c), first_row,
                      static_cast<std::uint32_t>(group_count_),
                      offset_ == 0 ? kHeaderBytes + page_start + kPageHeaderBytes
                                   : offset_ + page_start + kPageHeaderBytes,
                      static_cast<std::uint32_t>(payload.size()), crc});
    out.bytes(payload);
    out.zeros((64 - out.size() % 64) % 64);
    b.fixed.clear();
    b.ends.clear();
    b.blob.clear();
    b.count = 0;
  }
  group_count_ = 0;
  return append(out, err);
}

bool StoreWriter::end_row(StoreError* err) {
  for (std::size_t c = 0; c < schema_.size(); ++c) {
    if (bufs_[c].count != group_count_ + 1) {
      set_error(err, StoreErrorKind::kBadSchema,
                "column '" + schema_[c].name + "' has " +
                    std::to_string(bufs_[c].count) + " values at row " +
                    std::to_string(rows_));
      dead_ = true;
      return false;
    }
  }
  ++rows_;
  ++group_count_;
  if (group_count_ >= opts_.group_rows) return flush_group(err);
  return true;
}

bool StoreWriter::finalize(StoreError* err) {
  if (finalized_) {
    set_error(err, StoreErrorKind::kIo, "store already finalized");
    return false;
  }
  if (!flush_group(err)) return false;

  net::ByteWriter footer;
  footer.u32le(static_cast<std::uint32_t>(schema_.size()));
  for (const auto& c : schema_) {
    footer.u16le(static_cast<std::uint16_t>(c.name.size()));
    footer.bytes(bytes_of(c.name));
    footer.u8(static_cast<std::uint8_t>(c.type));
    footer.u32le(static_cast<std::uint32_t>(c.cuts.size()));
    for (float v : c.cuts) footer.u32le(std::bit_cast<std::uint32_t>(v));
  }
  footer.u32le(static_cast<std::uint32_t>(opts_.bins));
  footer.u64le(rows_);
  footer.u64le(static_cast<std::uint64_t>(opts_.group_rows));
  footer.u64le(static_cast<std::uint64_t>(index_.size()));
  for (const auto& p : index_) {
    footer.u32le(p.col);
    footer.u64le(p.first_row);
    footer.u32le(p.nrows);
    footer.u64le(p.payload_offset);
    footer.u32le(p.payload_bytes);
    footer.u32le(p.crc);
  }

  // Rows == 0 writes header + footer only; append() lazily emits the
  // header, so force it by appending the footer through the same path.
  // The trailer follows the footer in the same append.
  const std::uint64_t footer_offset = offset_ == 0 ? kHeaderBytes : offset_;
  const std::uint32_t footer_crc = core::crc32(footer.data());
  footer.u64le(footer_offset);
  footer.u32le(footer_crc);
  footer.bytes(bytes_of(kTrailerMagic));
  if (!append(footer, err)) return false;

  std::string io_err;
  if (!io_->commit_temp(path_, &io_err)) {
    dead_ = true;
    set_error(err, StoreErrorKind::kIo, io_err);
    return false;
  }
  finalized_ = true;
  SUGAR_TRACE_COUNT("dataset.store.finalized_bytes", offset_);
  return true;
}

// ---------------------------------------------------------------------------
// StoreReader

StoreReader::~StoreReader() {
  if (file_id_ != 0) core::PageCache::global().drop_file(file_id_);
  // fd_ is owned by the FileHandle shared with loaders; nothing to close.
}

std::size_t StoreReader::groups() const {
  if (rows_ == 0) return 0;
  return static_cast<std::size_t>((rows_ + group_rows_ - 1) / group_rows_);
}

int StoreReader::column(const std::string& name) const {
  for (std::size_t i = 0; i < schema_.size(); ++i)
    if (schema_[i].name == name) return static_cast<int>(i);
  return -1;
}

std::unique_ptr<StoreReader> StoreReader::open(const std::string& path,
                                               StoreError* err) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    set_error(err, StoreErrorKind::kIo, "open failed: " + path);
    return nullptr;
  }
  auto fh = std::make_shared<FileHandle>();
  fh->fd = fd;

  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    set_error(err, StoreErrorKind::kIo, "fstat failed: " + path);
    return nullptr;
  }
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  if (size < kHeaderBytes + kTrailerBytes) {
    set_error(err, StoreErrorKind::kTruncated,
              "file smaller than header+trailer (" + std::to_string(size) + " bytes)");
    return nullptr;
  }

  std::uint8_t head[kHeaderBytes];
  std::uint8_t trail[kTrailerBytes];
  if (!pread_all(fd, head, kHeaderBytes, 0) ||
      !pread_all(fd, trail, kTrailerBytes, size - kTrailerBytes)) {
    set_error(err, StoreErrorKind::kIo, "read header/trailer failed");
    return nullptr;
  }
  net::ByteReader hr{head};
  if (!std::ranges::equal(hr.view(4), bytes_of(kFileMagic))) {
    set_error(err, StoreErrorKind::kBadMagic, "bad file magic");
    return nullptr;
  }
  const std::uint32_t version = hr.u32le();
  if (version != kVersion) {
    set_error(err, StoreErrorKind::kBadVersion,
              "format version " + std::to_string(version));
    return nullptr;
  }
  net::ByteReader tr{trail};
  const std::uint64_t footer_offset = tr.u64le();
  const std::uint32_t footer_crc = tr.u32le();
  if (!std::ranges::equal(tr.view(4), bytes_of(kTrailerMagic))) {
    set_error(err, StoreErrorKind::kBadMagic, "bad trailer magic");
    return nullptr;
  }
  if (footer_offset < kHeaderBytes || footer_offset > size - kTrailerBytes) {
    set_error(err, StoreErrorKind::kBadFooter,
              "footer offset " + std::to_string(footer_offset) + " out of range");
    return nullptr;
  }

  const std::size_t footer_len =
      static_cast<std::size_t>(size - kTrailerBytes - footer_offset);
  std::vector<std::uint8_t> footer(footer_len);
  if (!pread_all(fd, footer.data(), footer_len, footer_offset)) {
    set_error(err, StoreErrorKind::kIo, "read footer failed");
    return nullptr;
  }
  if (core::crc32(footer) != footer_crc) {
    set_error(err, StoreErrorKind::kFooterCrc, "footer CRC mismatch");
    return nullptr;
  }

  net::ByteReader br{footer};
  auto r = std::unique_ptr<StoreReader>(new StoreReader());
  const std::uint64_t ncols = br.u32le();
  if (!br.ok() || ncols > kMaxCols) {
    set_error(err, StoreErrorKind::kBadFooter, "column count out of range");
    return nullptr;
  }
  r->schema_.reserve(ncols);
  for (std::uint64_t c = 0; c < ncols && br.ok(); ++c) {
    ColumnSpec spec;
    const std::span<const std::uint8_t> name = br.view(br.u16le());
    spec.name.assign(name.begin(), name.end());
    const std::uint8_t t = br.u8();
    if (t > static_cast<std::uint8_t>(ColumnType::Bytes)) {
      set_error(err, StoreErrorKind::kBadSchema,
                "unknown column type " + std::to_string(t));
      return nullptr;
    }
    spec.type = static_cast<ColumnType>(t);
    const std::uint64_t ncuts = br.u32le();
    if (ncuts > 1u << 16) {
      set_error(err, StoreErrorKind::kBadFooter, "cut count out of range");
      return nullptr;
    }
    spec.cuts.reserve(ncuts);
    for (std::uint64_t i = 0; i < ncuts && br.ok(); ++i)
      spec.cuts.push_back(std::bit_cast<float>(br.u32le()));
    r->schema_.push_back(std::move(spec));
  }
  r->bins_ = static_cast<int>(br.u32le());
  r->rows_ = br.u64le();
  const std::uint64_t group_rows = br.u64le();
  const std::uint64_t npages = br.u64le();
  if (!br.ok() || group_rows == 0 || npages > kMaxPages) {
    set_error(err, StoreErrorKind::kBadFooter, "footer truncated or counts invalid");
    return nullptr;
  }
  r->group_rows_ = static_cast<std::size_t>(group_rows);

  const std::size_t groups = r->groups();
  if (npages != ncols * groups) {
    set_error(err, StoreErrorKind::kBadFooter,
              "page count " + std::to_string(npages) + " != cols*groups");
    return nullptr;
  }
  r->index_.reserve(npages);
  r->pages_.assign(ncols * groups, UINT32_MAX);
  for (std::uint64_t i = 0; i < npages && br.ok(); ++i) {
    PageEntry p;
    p.col = br.u32le();
    p.first_row = br.u64le();
    p.nrows = br.u32le();
    p.payload_offset = br.u64le();
    p.payload_bytes = br.u32le();
    p.crc = br.u32le();
    if (!br.ok()) break;
    if (p.col >= ncols || p.first_row % group_rows != 0 ||
        p.first_row >= r->rows_ ||
        p.nrows != std::min<std::uint64_t>(group_rows, r->rows_ - p.first_row)) {
      set_error(err, StoreErrorKind::kBadFooter, "page geometry invalid");
      return nullptr;
    }
    if (p.payload_offset < kHeaderBytes ||
        p.payload_offset + p.payload_bytes > footer_offset) {
      set_error(err, StoreErrorKind::kBadFooter, "page extent out of range");
      return nullptr;
    }
    const ColumnSpec& spec = r->schema_[p.col];
    const std::size_t elem = column_elem_size(spec.type);
    if (elem != 0 && p.payload_bytes != elem * p.nrows) {
      set_error(err, StoreErrorKind::kBadSchema, "page size != nrows*elem");
      return nullptr;
    }
    if (elem == 0 && p.payload_bytes < 4u * p.nrows) {
      set_error(err, StoreErrorKind::kBadSchema, "bytes page too small");
      return nullptr;
    }
    const std::size_t slot =
        static_cast<std::size_t>(p.col) * groups +
        static_cast<std::size_t>(p.first_row / group_rows);
    if (r->pages_[slot] != UINT32_MAX) {
      set_error(err, StoreErrorKind::kBadFooter, "duplicate page entry");
      return nullptr;
    }
    r->pages_[slot] = static_cast<std::uint32_t>(i);
    r->payload_bytes_ += p.payload_bytes;
    r->index_.push_back(p);
  }
  if (!br.ok()) {
    set_error(err, StoreErrorKind::kBadFooter, "footer truncated");
    return nullptr;
  }

  r->path_ = path;
  r->fd_ = fd;
  r->fh_ = std::move(fh);
  r->file_id_ = core::next_page_file_id();
  return r;
}

core::PageCache::Loader StoreReader::make_loader(std::size_t page) const {
  // Captures the shared fd handle and the page entry BY VALUE: a prefetch
  // job may run after this reader is gone. Validation beyond the CRC (the
  // Bytes offsets check, the code range of a U8 column with cuts) also
  // rides in the capture.
  const PageEntry p = index_[page];
  std::shared_ptr<FileHandle> fh = fh_;
  const ColumnSpec& spec = schema_[p.col];
  const bool is_bytes = spec.type == ColumnType::Bytes;
  // A code column's codes index its cuts.size() + 1 histogram bins; 0 means
  // unchecked (no cuts recorded: a plain byte column, or a one-bin feature
  // that tree fits never read).
  const std::size_t max_code =
      spec.type == ColumnType::U8 ? spec.cuts.size() : 0;
  return [fh, p, is_bytes, max_code](std::vector<std::uint8_t>& out,
                                     std::string& error) {
    out.resize(p.payload_bytes);
    if (!pread_all(fh->fd, out.data(), out.size(), p.payload_offset)) {
      error = "[truncated] page read short at offset " +
              std::to_string(p.payload_offset);
      return false;
    }
    if (core::crc32(out) != p.crc) {
      error = "[crc] page CRC mismatch at offset " +
              std::to_string(p.payload_offset);
      return false;
    }
    if (is_bytes) {
      // CRC-valid but structurally hostile offsets would turn bytes_at
      // into an out-of-bounds read; verify monotone ends within the blob.
      const auto* ends = reinterpret_cast<const std::uint32_t*>(out.data());
      const std::uint32_t blob = p.payload_bytes - 4u * p.nrows;
      std::uint32_t prev = 0;
      for (std::uint32_t i = 0; i < p.nrows; ++i) {
        if (ends[i] < prev || ends[i] > blob) {
          error = "[schema] bytes offsets not monotone/in range";
          return false;
        }
        prev = ends[i];
      }
    }
    if (max_code > 0 && std::any_of(out.begin(), out.end(), [&](std::uint8_t c) {
          return c > max_code;
        })) {
      // A code past its column's cuts would index past the feature's
      // packed histogram slot in a tree fit.
      error = "[schema] code exceeds its column's " +
              std::to_string(max_code) + " cuts";
      return false;
    }
    return true;
  };
}

bool StoreReader::pin(std::size_t col, std::size_t group,
                      core::PageCache::Pin& pin, ColumnBlock& block,
                      StoreError* err) const {
  if (col >= schema_.size() || group >= groups()) {
    set_error(err, StoreErrorKind::kBadSchema, "pin out of range");
    return false;
  }
  const std::size_t page = pages_[col * groups() + group];
  std::string load_err;
  core::PageCache::Pin p = core::PageCache::global().get(
      {file_id_, page}, make_loader(page), &load_err);
  if (!p) {
    StoreErrorKind kind = StoreErrorKind::kIo;
    if (load_err.rfind("[crc]", 0) == 0) kind = StoreErrorKind::kPageCrc;
    else if (load_err.rfind("[truncated]", 0) == 0) kind = StoreErrorKind::kTruncated;
    else if (load_err.rfind("[schema]", 0) == 0) kind = StoreErrorKind::kBadSchema;
    set_error(err, kind, load_err);
    return false;
  }
  const PageEntry& e = index_[page];
  block = {p.data(), e.first_row, e.nrows};
  pin = std::move(p);
  return true;
}

void StoreReader::prefetch(std::size_t col, std::size_t group) const {
  if (col >= schema_.size() || group >= groups()) return;
  const std::size_t page = pages_[col * groups() + group];
  core::PageCache::global().prefetch({file_id_, page}, make_loader(page));
}

// ---------------------------------------------------------------------------
// Cursors

bool ColumnCursor::next(ColumnBlock& out, StoreError* err) {
  if (group_ >= r_->groups()) return false;
  if (!r_->pin(col_, group_, pin_, out, err)) return false;
  ++group_;
  if (group_ < r_->groups()) r_->prefetch(col_, group_);
  return true;
}

bool RowBlockCursor::next(std::vector<ColumnBlock>& out, StoreError* err) {
  if (group_ >= r_->groups()) return false;
  out.resize(cols_.size());
  for (std::size_t i = 0; i < cols_.size(); ++i)
    if (!r_->pin(cols_[i], group_, pins_[i], out[i], err)) return false;
  ++group_;
  if (group_ < r_->groups())
    for (std::size_t c : cols_) r_->prefetch(c, group_);
  return true;
}

// ---------------------------------------------------------------------------
// PagedCodeSource

PagedCodeSource::PagedCodeSource(const StoreReader& r,
                                 std::vector<std::size_t> code_cols)
    : r_(&r), code_cols_(std::move(code_cols)) {
  for (std::size_t c : code_cols_)
    if (c >= r.schema().size() || r.schema()[c].type != ColumnType::U8)
      throw core::RunError(core::RunErrorKind::kInternal,
                           "PagedCodeSource column " + std::to_string(c) +
                               " is not a U8 code column");
}

std::size_t PagedCodeSource::rows() const {
  return static_cast<std::size_t>(r_->rows());
}

const std::vector<float>& PagedCodeSource::cuts(std::size_t f) const {
  return r_->schema()[code_cols_[f]].cuts;
}

ml::CodeChunk PagedCodeSource::fetch(std::size_t f, std::size_t row,
                                     std::shared_ptr<const void>& keepalive) const {
  core::PageCache::Pin pin;
  ColumnBlock block;
  StoreError err;
  if (!r_->pin(code_cols_[f], r_->group_of(row), pin, block, &err))
    throw core::RunError(core::RunErrorKind::kInternal,
                         std::string("page load failed (") +
                             to_string(err.kind) + "): " + err.message);
  auto holder = std::make_shared<core::PageCache::Pin>(std::move(pin));
  keepalive = holder;
  return {block.data, static_cast<std::size_t>(block.first_row),
          static_cast<std::size_t>(block.first_row) + block.nrows};
}

void PagedCodeSource::hint(std::size_t f, std::size_t row) const {
  r_->prefetch(code_cols_[f], r_->group_of(row));
}

}  // namespace sugar::dataset
