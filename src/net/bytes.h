// Bounds-checked byte-buffer cursors: the one codec for every byte format
// the library reads or writes. The packet parser and serializer use the
// big-endian (network order) accessors. The file formats use the
// little-endian ones: pcap files (and the big-endian ones for a file
// written big-endian), serve snapshots and SUGC store headers and footers.
// Floats travel as the std::bit_cast of a u32le.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sugar::net {

/// Read cursor over an immutable byte span. All accessors check bounds and
/// report failure through ok(); after the first failed read the cursor is
/// poisoned and every subsequent read returns 0.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const {
    return pos_ <= data_.size() ? data_.size() - pos_ : 0;
  }

  /// Absolute reposition. Seeking past the end poisons the reader.
  void seek(std::size_t offset);
  /// Relative forward skip.
  void skip(std::size_t n);

  std::uint8_t u8();
  std::uint16_t u16be();
  std::uint32_t u32be();
  std::uint16_t u16le();
  std::uint32_t u32le();
  std::uint64_t u64le();

  /// Copies n bytes into out; poisons and leaves out untouched on underflow.
  bool bytes(std::uint8_t* out, std::size_t n);
  /// Returns a view of n bytes without copying, or an empty span on underflow.
  std::span<const std::uint8_t> view(std::size_t n);

 private:
  bool fail() {
    ok_ = false;
    return false;
  }
  bool need(std::size_t n) {
    if (!ok_) return false;  // stay poisoned after the first failure
    return remaining() >= n ? true : fail();
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Append-only growable byte sink. Writers never fail; the buffer grows.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16be(std::uint16_t v);
  void u32be(std::uint32_t v);
  void u16le(std::uint16_t v);
  void u32le(std::uint32_t v);
  void u64le(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void zeros(std::size_t n) { buf_.insert(buf_.end(), n, 0); }

  /// In-place patch of an already-written big-endian u16 (checksum fixups).
  void patch_u16be(std::size_t offset, std::uint16_t v);

 private:
  std::vector<std::uint8_t> buf_;
};

}  // namespace sugar::net
