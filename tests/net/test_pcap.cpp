#include <gtest/gtest.h>

#include <sstream>
#include <tuple>

#include "core/artifact.h"
#include "net/pcap.h"
#include "net/serializer.h"

namespace sugar::net {
namespace {

std::vector<Packet> sample_packets() {
  std::vector<Packet> pkts;
  for (int i = 0; i < 5; ++i) {
    FrameSpec spec;
    Ipv4Header ip;
    ip.src = Ipv4Address::from_octets(10, 0, 0, 1);
    ip.dst = Ipv4Address::from_octets(10, 0, 0, 2);
    spec.ipv4 = ip;
    UdpHeader udp;
    udp.src_port = 1000;
    udp.dst_port = static_cast<std::uint16_t>(2000 + i);
    spec.udp = udp;
    spec.payload.assign(static_cast<std::size_t>(10 + i * 7),
                        static_cast<std::uint8_t>(i));
    pkts.push_back(build_packet(spec, 1'000'000ull * static_cast<std::uint64_t>(i) + 42));
  }
  return pkts;
}

TEST(Pcap, RoundTrip) {
  auto pkts = sample_packets();
  std::stringstream ss;
  {
    PcapWriter writer(ss);
    writer.write_all(pkts);
  }
  PcapReader reader(ss);
  EXPECT_EQ(reader.info().snaplen, 65535u);
  EXPECT_EQ(reader.info().link_type, 1u);
  EXPECT_FALSE(reader.info().nanosecond);
  EXPECT_FALSE(reader.info().swapped);  // the writer writes little-endian

  auto back = reader.read_all();
  ASSERT_EQ(back.size(), pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    EXPECT_EQ(back[i].ts_usec, pkts[i].ts_usec);
    EXPECT_EQ(back[i].data, pkts[i].data);
  }
}

// The writer's bytes are pinned at the default snaplen and at one that
// truncates every record, so the file format cannot drift under a change
// to its codec.
TEST(Pcap, WriterBytesPinned) {
  const auto pkts = sample_packets();
  for (const auto& [snaplen, size, digest] :
       {std::tuple{std::uint32_t{65535}, std::size_t{434}, std::uint64_t{0x8edf3e86c1a22009}},
        std::tuple{std::uint32_t{50}, std::size_t{354}, std::uint64_t{0x72513e2b7bc9d0e7}}}) {
    std::stringstream ss;
    PcapWriter writer(ss, snaplen);
    writer.write_all(pkts);
    const std::string bytes = ss.str();
    EXPECT_EQ(bytes.size(), size) << "snaplen " << snaplen;
    EXPECT_EQ(core::fnv1a64(bytes), digest) << "snaplen " << snaplen;
  }
}

TEST(Pcap, SnaplenTruncates) {
  auto pkts = sample_packets();
  std::stringstream ss;
  {
    PcapWriter writer(ss, /*snaplen=*/50);
    writer.write_all(pkts);
  }
  PcapReader reader(ss);
  auto back = reader.read_all();
  ASSERT_EQ(back.size(), pkts.size());
  for (const auto& p : back) EXPECT_LE(p.data.size(), 50u);
}

TEST(Pcap, RejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(PcapReader r(empty), PcapError);

  std::stringstream bad;
  bad.write("\x11\x22\x33\x44________________________", 28);
  EXPECT_THROW(PcapReader r(bad), PcapError);
}

TEST(Pcap, TruncatedRecordEndsStream) {
  auto pkts = sample_packets();
  std::stringstream ss;
  {
    PcapWriter writer(ss);
    writer.write_all(pkts);
  }
  std::string blob = ss.str();
  blob.resize(blob.size() - 5);  // cut into the last record
  std::stringstream cut(blob);
  PcapReader reader(cut);
  auto back = reader.read_all();
  EXPECT_EQ(back.size(), pkts.size() - 1);
  // The damage is counted, never silent.
  EXPECT_EQ(reader.stats().records_ok, pkts.size() - 1);
  EXPECT_EQ(reader.stats().records_truncated, 1u);
  EXPECT_EQ(reader.stats().total_records(), pkts.size());
}

// A stream that ends inside a record header is a truncated record however
// few of its 16 bytes arrived; only a stream ending between records ends
// cleanly.
TEST(Pcap, TornRecordHeaderIsCounted) {
  auto pkts = sample_packets();
  std::stringstream ss;
  {
    PcapWriter writer(ss);
    writer.write_all(pkts);
  }
  const std::string blob = ss.str();
  const std::string header = blob.substr(24, 16);  // the first record's header
  for (std::size_t torn : {1u, 3u, 15u}) {
    std::stringstream in(blob + header.substr(0, torn));
    PcapReader reader(in);
    auto back = reader.read_all();
    EXPECT_EQ(back.size(), pkts.size()) << torn << " header bytes";
    EXPECT_EQ(reader.stats().records_ok, pkts.size()) << torn << " header bytes";
    EXPECT_EQ(reader.stats().records_truncated, 1u) << torn << " header bytes";
    EXPECT_EQ(reader.stats().total_records(), pkts.size() + 1)
        << torn << " header bytes";
  }
}

TEST(Pcap, MidRecordTruncationCounted) {
  auto pkts = sample_packets();
  std::stringstream ss;
  {
    PcapWriter writer(ss);
    writer.write_all(pkts);
  }
  std::string blob = ss.str();
  // Cut inside the *data* of the second record: global header (24) + record 1
  // (16 + data) + record 2 header (16) + 3 bytes of its data.
  std::size_t cut = 24 + 16 + pkts[0].data.size() + 16 + 3;
  ASSERT_LT(cut, blob.size());
  blob.resize(cut);
  std::stringstream in(blob);
  PcapReader reader(in);
  auto back = reader.read_all();
  EXPECT_EQ(back.size(), 1u);
  EXPECT_EQ(reader.stats().records_ok, 1u);
  EXPECT_EQ(reader.stats().records_truncated, 1u);
  EXPECT_EQ(reader.stats().corrupt_headers, 0u);
  EXPECT_EQ(reader.stats().total_records(), 2u);
}

TEST(Pcap, ZeroLengthRecordsAreRead) {
  auto le32 = [](std::uint32_t v) {
    return std::string{static_cast<char>(v), static_cast<char>(v >> 8),
                       static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  };
  auto le16 = [](std::uint16_t v) {
    return std::string{static_cast<char>(v), static_cast<char>(v >> 8)};
  };
  // Global header + zero-length record + one 2-byte record.
  std::string blob = le32(0xA1B2C3D4) + le16(2) + le16(4) + le32(0) + le32(0) +
                     le32(65535) + le32(1) +
                     le32(9) + le32(1) + le32(0) + le32(0) +
                     le32(10) + le32(2) + le32(2) + le32(2) + "\xAB\xCD";
  std::stringstream ss(blob);
  PcapReader reader(ss);
  auto back = reader.read_all();
  ASSERT_EQ(back.size(), 2u);
  EXPECT_TRUE(back[0].data.empty());
  EXPECT_EQ(back[0].ts_usec, 9'000'001u);
  ASSERT_EQ(back[1].data.size(), 2u);
  EXPECT_EQ(reader.stats().records_ok, 2u);
  EXPECT_EQ(reader.stats().total_records(), 2u);
}

TEST(Pcap, SnaplenCappedAgainstHostileGlobalHeader) {
  auto le32 = [](std::uint32_t v) {
    return std::string{static_cast<char>(v), static_cast<char>(v >> 8),
                       static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  };
  auto le16 = [](std::uint16_t v) {
    return std::string{static_cast<char>(v), static_cast<char>(v >> 8)};
  };
  // Hostile snaplen 0xFFFFFFFF plus a record claiming a 256 MiB payload.
  std::string blob = le32(0xA1B2C3D4) + le16(2) + le16(4) + le32(0) + le32(0) +
                     le32(0xFFFFFFFF) + le32(1) +
                     le32(1) + le32(0) + le32(0x10000000) + le32(0x10000000);
  std::stringstream ss(blob);
  PcapReader reader(ss);
  EXPECT_EQ(reader.info().snaplen, kMaxSnaplen);
  Packet p;
  // The lying incl_len must be rejected as a corrupt header, not allocated.
  EXPECT_FALSE(reader.next(p));
  EXPECT_EQ(reader.stats().corrupt_headers, 1u);
  EXPECT_EQ(reader.stats().records_ok, 0u);

  // A snaplen of 0 ("no limit") gets the same cap.
  std::string blob0 = le32(0xA1B2C3D4) + le16(2) + le16(4) + le32(0) + le32(0) +
                      le32(0) + le32(1);
  std::stringstream ss0(blob0);
  PcapReader reader0(ss0);
  EXPECT_EQ(reader0.info().snaplen, kMaxSnaplen);
}

TEST(Pcap, SwappedNanosecondMagicWithGarbageTail) {
  auto be32 = [](std::uint32_t v) {
    return std::string{static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                       static_cast<char>(v >> 8), static_cast<char>(v)};
  };
  auto be16 = [](std::uint16_t v) {
    return std::string{static_cast<char>(v >> 8), static_cast<char>(v)};
  };
  // Big-endian nanosecond file: one valid 4-byte record, then a garbage tail.
  std::string blob = be32(0xA1B23C4D) + be16(2) + be16(4) + be32(0) + be32(0) +
                     be32(65535) + be32(1) +
                     be32(3) + be32(250'000'000) + be32(4) + be32(4) +
                     "\x01\x02\x03\x04";
  blob += std::string(40, '\xEE');  // garbage: implausible as record headers
  std::stringstream ss(blob);
  PcapReader reader(ss, ReadPolicy::SkipAndResync);
  EXPECT_TRUE(reader.info().nanosecond);
  EXPECT_TRUE(reader.info().swapped);  // the file is big-endian
  auto back = reader.read_all();
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].ts_usec, 3'250'000u);
  const auto& st = reader.stats();
  EXPECT_EQ(st.records_ok, 1u);
  EXPECT_EQ(st.corrupt_headers, 1u);  // the garbage tail, counted once
  EXPECT_EQ(st.total_records(), 2u);
  EXPECT_GT(st.bytes_skipped, 0u);
}

TEST(Pcap, ResyncRecoversRecordsAfterCorruptHeader) {
  auto pkts = sample_packets();
  std::stringstream ss;
  {
    PcapWriter writer(ss);
    writer.write_all(pkts);
  }
  std::string blob = ss.str();
  // Corrupt the incl_len of record 2 (0xFFFFFFFF is endianness-symmetric).
  std::size_t rec2 = 24 + 16 + pkts[0].data.size();
  for (std::size_t i = rec2 + 8; i < rec2 + 12; ++i) blob[i] = '\xFF';

  {  // Strict: stop at the corruption, but count it.
    std::stringstream in(blob);
    PcapReader reader(in, ReadPolicy::Strict);
    auto back = reader.read_all();
    EXPECT_EQ(back.size(), 1u);
    EXPECT_EQ(reader.stats().corrupt_headers, 1u);
    EXPECT_EQ(reader.stats().total_records(), 2u);
  }
  {  // SkipAndResync: recover every record after the damaged one.
    std::stringstream in(blob);
    PcapReader reader(in, ReadPolicy::SkipAndResync);
    auto back = reader.read_all();
    ASSERT_EQ(back.size(), pkts.size() - 1);
    EXPECT_EQ(back[0].data, pkts[0].data);
    for (std::size_t i = 1; i < back.size(); ++i) {
      EXPECT_EQ(back[i].data, pkts[i + 1].data);
      EXPECT_EQ(back[i].ts_usec, pkts[i + 1].ts_usec);
    }
    const auto& st = reader.stats();
    EXPECT_EQ(st.records_ok, pkts.size() - 1);
    EXPECT_EQ(st.corrupt_headers, 1u);
    EXPECT_EQ(st.resyncs, 1u);
    EXPECT_GT(st.bytes_skipped, 0u);
    EXPECT_EQ(st.total_records(), pkts.size());
  }
}

TEST(Pcap, ReadsSwappedEndianness) {
  // Hand-build a big-endian (swapped relative to our writer) file with one
  // 4-byte record.
  auto be32 = [](std::uint32_t v) {
    return std::string{static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                       static_cast<char>(v >> 8), static_cast<char>(v)};
  };
  auto be16 = [](std::uint16_t v) {
    return std::string{static_cast<char>(v >> 8), static_cast<char>(v)};
  };
  std::string blob = be32(0xA1B2C3D4) + be16(2) + be16(4) + be32(0) + be32(0) +
                     be32(65535) + be32(1) +
                     be32(7) + be32(123) + be32(4) + be32(4) + "\xAA\xBB\xCC\xDD";
  std::stringstream ss(blob);
  PcapReader reader(ss);
  EXPECT_TRUE(reader.info().swapped);  // the file is big-endian
  Packet p;
  ASSERT_TRUE(reader.next(p));
  EXPECT_EQ(p.ts_usec, 7'000'123u);
  ASSERT_EQ(p.data.size(), 4u);
  EXPECT_EQ(p.data[0], 0xAA);
}

TEST(Pcap, NanosecondMagic) {
  auto le32 = [](std::uint32_t v) {
    return std::string{static_cast<char>(v), static_cast<char>(v >> 8),
                       static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  };
  auto le16 = [](std::uint16_t v) {
    return std::string{static_cast<char>(v), static_cast<char>(v >> 8)};
  };
  std::string blob = le32(0xA1B23C4D) + le16(2) + le16(4) + le32(0) + le32(0) +
                     le32(65535) + le32(1) +
                     le32(1) + le32(500'000'000) + le32(2) + le32(2) + "\x01\x02";
  std::stringstream ss(blob);
  PcapReader reader(ss);
  EXPECT_TRUE(reader.info().nanosecond);
  Packet p;
  ASSERT_TRUE(reader.next(p));
  EXPECT_EQ(p.ts_usec, 1'500'000u);  // 1 s + 500 ms
}

TEST(Pcap, FileHelpers) {
  auto pkts = sample_packets();
  std::string path = ::testing::TempDir() + "/sugar_test.pcap";
  write_pcap_file(path, pkts);
  auto back = read_pcap_file(path);
  ASSERT_EQ(back.size(), pkts.size());
  EXPECT_EQ(back[2].data, pkts[2].data);
  EXPECT_THROW(read_pcap_file("/nonexistent/zzz.pcap"), PcapError);
}

}  // namespace
}  // namespace sugar::net
