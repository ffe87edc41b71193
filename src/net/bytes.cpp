#include "net/bytes.h"

#include <algorithm>

namespace sugar::net {

void ByteReader::seek(std::size_t offset) {
  if (offset > data_.size()) {
    fail();
    return;
  }
  pos_ = offset;
}

void ByteReader::skip(std::size_t n) {
  if (!need(n)) return;
  pos_ += n;
}

std::uint8_t ByteReader::u8() {
  if (!need(1)) return 0;
  return data_[pos_++];
}

std::uint16_t ByteReader::u16be() {
  if (!need(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32be() {
  if (!need(4)) return 0;
  std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) << 24 |
                    static_cast<std::uint32_t>(data_[pos_ + 1]) << 16 |
                    static_cast<std::uint32_t>(data_[pos_ + 2]) << 8 |
                    static_cast<std::uint32_t>(data_[pos_ + 3]);
  pos_ += 4;
  return v;
}

std::uint16_t ByteReader::u16le() {
  if (!need(2)) return 0;
  std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | data_[pos_ + 1] << 8);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::u32le() {
  if (!need(4)) return 0;
  std::uint32_t v = static_cast<std::uint32_t>(data_[pos_]) |
                    static_cast<std::uint32_t>(data_[pos_ + 1]) << 8 |
                    static_cast<std::uint32_t>(data_[pos_ + 2]) << 16 |
                    static_cast<std::uint32_t>(data_[pos_ + 3]) << 24;
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64le() {
  if (!need(8)) return 0;
  std::uint64_t v = 0;
  for (std::size_t i = 8; i-- > 0;) v = v << 8 | data_[pos_ + i];
  pos_ += 8;
  return v;
}

bool ByteReader::bytes(std::uint8_t* out, std::size_t n) {
  if (!need(n)) return false;
  std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(pos_), n, out);
  pos_ += n;
  return true;
}

std::span<const std::uint8_t> ByteReader::view(std::size_t n) {
  if (!need(n)) return {};
  auto v = data_.subspan(pos_, n);
  pos_ += n;
  return v;
}

void ByteWriter::u16be(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32be(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u16le(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32le(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
}

void ByteWriter::u64le(std::uint64_t v) {
  u32le(static_cast<std::uint32_t>(v));
  u32le(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::patch_u16be(std::size_t offset, std::uint16_t v) {
  if (offset + 2 > buf_.size()) return;
  buf_[offset] = static_cast<std::uint8_t>(v >> 8);
  buf_[offset + 1] = static_cast<std::uint8_t>(v);
}

}  // namespace sugar::net
