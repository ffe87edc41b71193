#include <gtest/gtest.h>

#include "net/bytes.h"

namespace sugar::net {
namespace {

TEST(ByteWriter, WritesBigEndian) {
  ByteWriter w;
  w.u8(0x01);
  w.u16be(0x0203);
  w.u32be(0x04050607);
  ASSERT_EQ(w.size(), 7u);
  const auto& d = w.data();
  EXPECT_EQ(d[0], 0x01);
  EXPECT_EQ(d[1], 0x02);
  EXPECT_EQ(d[2], 0x03);
  EXPECT_EQ(d[3], 0x04);
  EXPECT_EQ(d[6], 0x07);
}

TEST(ByteWriter, LittleEndianHelpers) {
  ByteWriter w;
  w.u16le(0x0102);
  w.u32le(0x03040506);
  w.u64le(0x0708090A0B0C0D0Eull);
  ASSERT_EQ(w.size(), 14u);
  EXPECT_EQ(w.data()[0], 0x02);
  EXPECT_EQ(w.data()[1], 0x01);
  EXPECT_EQ(w.data()[2], 0x06);
  EXPECT_EQ(w.data()[5], 0x03);
  EXPECT_EQ(w.data()[6], 0x0E);
  EXPECT_EQ(w.data()[13], 0x07);
}

TEST(ByteWriter, PatchInPlace) {
  ByteWriter w;
  w.u32be(0);
  w.patch_u16be(1, 0xBEEF);
  EXPECT_EQ(w.data()[1], 0xBE);
  EXPECT_EQ(w.data()[2], 0xEF);
  // Out-of-range patches are ignored, not UB.
  w.patch_u16be(3, 0xFFFF);
  EXPECT_EQ(w.data()[3], 0x00);
}

TEST(ByteReader, RoundTripsWriter) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16be(0x1234);
  w.u32be(0xDEADBEEF);
  w.u16le(0x5678);
  w.u32le(0xCAFEF00D);
  w.u64le(0x0123456789ABCDEFull);
  auto buf = w.take();

  ByteReader r{buf};
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16be(), 0x1234);
  EXPECT_EQ(r.u32be(), 0xDEADBEEFu);
  EXPECT_EQ(r.u16le(), 0x5678);
  EXPECT_EQ(r.u32le(), 0xCAFEF00Du);
  EXPECT_EQ(r.u64le(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, PoisonsOnUnderflow) {
  std::vector<std::uint8_t> buf{1, 2};
  ByteReader r{buf};
  EXPECT_EQ(r.u32be(), 0u);
  EXPECT_FALSE(r.ok());
  // Once poisoned, further reads keep failing even if bytes remain.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());

  // A u64le short by one byte consumes nothing and poisons.
  std::vector<std::uint8_t> seven(7, 0xFF);
  ByteReader r7{seven};
  EXPECT_EQ(r7.u64le(), 0u);
  EXPECT_FALSE(r7.ok());
  EXPECT_EQ(r7.offset(), 0u);
}

TEST(ByteReader, SeekAndSkip) {
  std::vector<std::uint8_t> buf{1, 2, 3, 4, 5};
  ByteReader r{buf};
  r.skip(2);
  EXPECT_EQ(r.u8(), 3);
  r.seek(0);
  EXPECT_EQ(r.u8(), 1);
  r.seek(5);  // end is a valid position
  EXPECT_TRUE(r.ok());
  r.seek(6);
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, ViewDoesNotCopy) {
  std::vector<std::uint8_t> buf{9, 8, 7, 6};
  ByteReader r{buf};
  auto v = r.view(3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v.data(), buf.data());
  EXPECT_EQ(r.offset(), 3u);
  auto empty = r.view(5);
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace sugar::net
