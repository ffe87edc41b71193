#include <gtest/gtest.h>

#include "core/crc32.h"
#include "net/checksum.h"
#include "net/parser.h"
#include "net/serializer.h"

namespace sugar::net {
namespace {

TEST(Checksum, Rfc1071WorkedExample) {
  // The classic example from RFC 1071 §3: data 00 01 f2 03 f4 f5 f6 f7.
  std::vector<std::uint8_t> data{0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7};
  std::uint32_t partial = checksum_partial(data);
  // Sum = 0001 + f203 + f4f5 + f6f7 = 2ddf0 -> folded ddf2.
  EXPECT_EQ((partial & 0xFFFF) + (partial >> 16), 0xDDF2u);
  EXPECT_EQ(checksum(data), static_cast<std::uint16_t>(~0xDDF2u));
}

TEST(Checksum, OddLengthPadsWithZero) {
  std::vector<std::uint8_t> even{0x12, 0x34, 0xAB, 0x00};
  std::vector<std::uint8_t> odd{0x12, 0x34, 0xAB};
  EXPECT_EQ(checksum(even), checksum(odd));
}

TEST(Checksum, ValidatedHeaderSumsToZero) {
  // A header with a correct checksum re-checksums to 0.
  std::vector<std::uint8_t> hdr{0x45, 0x00, 0x00, 0x28, 0x1B, 0x2C, 0x40,
                                0x00, 0x40, 0x06, 0x00, 0x00, 0xC0, 0xA8,
                                0x00, 0x01, 0xC0, 0xA8, 0x00, 0x02};
  std::uint16_t c = checksum(hdr);
  hdr[10] = static_cast<std::uint8_t>(c >> 8);
  hdr[11] = static_cast<std::uint8_t>(c);
  EXPECT_EQ(checksum(hdr), 0);
}

TEST(Checksum, BuiltTcpFrameValidates) {
  FrameSpec spec;
  Ipv4Header ip;
  ip.src = Ipv4Address::from_octets(192, 168, 0, 1);
  ip.dst = Ipv4Address::from_octets(10, 0, 0, 1);
  spec.ipv4 = ip;
  TcpHeader tcp;
  tcp.src_port = 40000;
  tcp.dst_port = 443;
  tcp.seq = 0x01020304;
  tcp.ack_flag = true;
  tcp.ack = 0x0A0B0C0D;
  spec.tcp = tcp;
  spec.payload = {1, 2, 3, 4, 5};
  auto frame = build_frame(spec);

  Packet pkt{.ts_usec = 0, .data = frame};
  auto outcome = parse_packet(pkt);
  ASSERT_TRUE(outcome.ok());
  const auto& p = *outcome.parsed;

  // IPv4 header checksum verifies.
  auto ip_hdr = std::span{pkt.data}.subspan(p.l3_offset, p.ipv4->header_len());
  EXPECT_EQ(checksum(ip_hdr), 0);

  // TCP checksum verifies against the pseudo header.
  std::size_t seg_len = pkt.data.size() - p.l4_offset;
  auto segment = std::span{pkt.data}.subspan(p.l4_offset, seg_len);
  EXPECT_EQ(l4_checksum_v4(p.ipv4->src, p.ipv4->dst, 6, segment), 0);
}

TEST(Checksum, V6PseudoHeader) {
  Ipv6Address src = *Ipv6Address::parse("2001:db8::1");
  Ipv6Address dst = *Ipv6Address::parse("2001:db8::2");
  std::vector<std::uint8_t> segment{0x00, 0x35, 0x00, 0x35, 0x00,
                                    0x0C, 0x00, 0x00, 0xDE, 0xAD};
  std::uint16_t c1 = l4_checksum_v6(src, dst, 17, segment);
  // Embedding the checksum must make the total validate to 0.
  segment[6] = static_cast<std::uint8_t>(c1 >> 8);
  segment[7] = static_cast<std::uint8_t>(c1);
  EXPECT_EQ(l4_checksum_v6(src, dst, 17, segment), 0);
}

TEST(Crc32, CheckVector) {
  // The canonical IEEE 802.3 / zlib check value.
  const char* s = "123456789";
  std::span<const std::uint8_t> data{reinterpret_cast<const std::uint8_t*>(s), 9};
  EXPECT_EQ(core::crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(core::crc32(std::span<const std::uint8_t>{}), 0u);
}

TEST(Crc32, ChainingMatchesOneShot) {
  std::vector<std::uint8_t> data(257);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  const std::uint32_t whole = core::crc32(data);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{128},
                            std::size_t{256}, data.size()}) {
    std::uint32_t acc = core::crc32(std::span{data}.first(split));
    acc = core::crc32(std::span{data}.subspan(split), acc);
    EXPECT_EQ(acc, whole) << "split at " << split;
  }
}

TEST(Crc32, SingleBitFlipDetected) {
  std::vector<std::uint8_t> data(64, 0xA5);
  const std::uint32_t clean = core::crc32(data);
  for (std::size_t byte : {std::size_t{0}, std::size_t{31}, std::size_t{63}}) {
    for (int bit : {0, 4, 7}) {
      auto flipped = data;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(core::crc32(flipped), clean);
    }
  }
}

}  // namespace
}  // namespace sugar::net
