#include <gtest/gtest.h>

#include <sstream>

#include "core/artifact.h"
#include "net/fault.h"
#include "net/parser.h"
#include "net/pcap.h"
#include "net/serializer.h"
#include "trafficgen/payload.h"

namespace sugar::net {
namespace {

Packet tcp_packet_with_options(std::uint8_t salt) {
  FrameSpec spec;
  Ipv4Header ip;
  ip.src = Ipv4Address::from_octets(10, 0, 0, salt);
  ip.dst = Ipv4Address::from_octets(192, 168, 1, salt);
  spec.ipv4 = ip;
  TcpHeader tcp;
  tcp.src_port = 443;
  tcp.dst_port = static_cast<std::uint16_t>(50000 + salt);
  tcp.seq = 0x1000u * salt;
  tcp.options.mss = 1460;
  tcp.options.timestamp = {{0xAABB0000u + salt, 0x1122u}};
  spec.tcp = tcp;
  spec.payload.assign(40 + salt, 0xEE);
  return build_packet(spec, 1'700'000'000'000'000ull + salt);
}

Packet udp_packet(std::uint8_t salt) {
  FrameSpec spec;
  Ipv4Header ip;
  ip.src = Ipv4Address::from_octets(10, 0, 1, salt);
  ip.dst = Ipv4Address::from_octets(10, 0, 2, salt);
  spec.ipv4 = ip;
  UdpHeader udp;
  udp.src_port = 53;
  udp.dst_port = static_cast<std::uint16_t>(40000 + salt);
  spec.udp = udp;
  spec.payload.assign(20 + salt, 0xEE);
  return build_packet(spec, 1'700'000'000'500'000ull + salt);
}

/// QUIC-shaped frame: UDP/443 carrying a long-header initial (first byte
/// 0xC0|x, version 1) or a short-header 1-RTT packet.
Packet quic_packet(std::uint8_t salt, bool long_header) {
  FrameSpec spec;
  Ipv4Header ip;
  ip.src = Ipv4Address::from_octets(10, 1, 0, salt);
  ip.dst = Ipv4Address::from_octets(192, 168, 2, salt);
  spec.ipv4 = ip;
  UdpHeader udp;
  udp.src_port = long_header ? static_cast<std::uint16_t>(50200 + salt) : 443;
  udp.dst_port = long_header ? 443 : static_cast<std::uint16_t>(50200 + salt);
  spec.udp = udp;
  trafficgen::Rng rng(0xAB00u + salt);
  spec.payload = trafficgen::quic_payload(rng, long_header ? 1252 : 160, long_header);
  return build_packet(spec, 1'700'000'001'000'000ull + salt);
}

/// DoH-shaped frame: TCP/443 carrying a burst of small TLS application
/// records (0x17 0x03 0x03 framing).
Packet doh_packet(std::uint8_t salt) {
  FrameSpec spec;
  Ipv4Header ip;
  ip.src = Ipv4Address::from_octets(10, 2, 0, salt);
  ip.dst = Ipv4Address::from_octets(9, 9, 9, salt);
  spec.ipv4 = ip;
  TcpHeader tcp;
  tcp.src_port = static_cast<std::uint16_t>(51300 + salt);
  tcp.dst_port = 443;
  tcp.seq = 0x2000u * salt;
  spec.tcp = tcp;
  trafficgen::Rng rng(0xCD00u + salt);
  spec.payload = trafficgen::doh_payload(rng, 200 + salt);
  return build_packet(spec, 1'700'000'002'000'000ull + salt);
}

std::string serialize_pcap(const std::vector<Packet>& pkts) {
  std::stringstream ss;
  PcapWriter writer(ss);
  writer.write_all(pkts);
  return ss.str();
}

/// The core parse invariants every mutant must satisfy.
void expect_parse_invariants(const Packet& mutant, const char* context) {
  auto outcome = parse_packet(mutant);
  ASSERT_NE(outcome.parsed.has_value(), outcome.error.has_value()) << context;
  if (outcome.error) {
    EXPECT_LT(static_cast<std::size_t>(*outcome.error), kParseErrorCount) << context;
    return;
  }
  const auto& p = *outcome.parsed;
  auto cat = classify_spurious(p);
  EXPECT_LT(static_cast<std::size_t>(cat),
            static_cast<std::size_t>(SpuriousCategory::kCount))
      << context;
  EXPECT_LE(p.header_view(mutant).size(), mutant.data.size()) << context;
  EXPECT_LE(p.payload_view(mutant).size(), mutant.data.size()) << context;
  EXPECT_LE(p.l3_offset, mutant.data.size()) << context;
}

TEST(FaultInjection, Deterministic) {
  Packet base = tcp_packet_with_options(1);
  FaultInjector a(77), b(77);
  for (int i = 0; i < 50; ++i) {
    Packet ma = a.mutate_frame(base);
    Packet mb = b.mutate_frame(base);
    ASSERT_EQ(ma.data, mb.data) << "seeded mutation must be replayable";
  }
  std::string wire = serialize_pcap({base, udp_packet(2)});
  FaultInjector c(99), d(99);
  for (int i = 0; i < 50; ++i) ASSERT_EQ(c.mutate_stream(wire), d.mutate_stream(wire));
}

TEST(FaultInjection, TargetedFaultsHitTheTaxonomy) {
  FaultInjector inj(5);
  Packet base = tcp_packet_with_options(3);

  // Cutting inside the Ethernet header must yield TruncatedEthernet.
  Packet cut = inj.mutate_frame(base, FrameFault::TruncateEthernet);
  auto outcome = parse_packet(cut);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(*outcome.error, ParseError::TruncatedEthernet);

  // A zero option-length must be rejected as BadTcpHeader, never spin.
  Packet zopt = inj.mutate_frame(base, FrameFault::ZeroTcpOptionLength);
  outcome = parse_packet(zopt);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(*outcome.error, ParseError::BadTcpHeader);

  // An option length overrunning the header must be rejected too.
  Packet oopt = inj.mutate_frame(base, FrameFault::OversizedTcpOption);
  outcome = parse_packet(oopt);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(*outcome.error, ParseError::BadTcpHeader);
}

// The bounded deterministic fuzz pass: 50k mutated frames through
// parse_packet + classify_spurious. Crashes/UB fail the test (and the
// SUGAR_SANITIZE build catches anything subtler).
TEST(FaultInjection, FrameFuzz50k) {
  std::vector<Packet> corpus = {tcp_packet_with_options(1), udp_packet(2),
                                tcp_packet_with_options(9), udp_packet(17)};
  FaultInjector inj(2024);
  std::size_t rejected = 0, parsed = 0;
  for (std::size_t i = 0; i < 50'000; ++i) {
    auto fault =
        static_cast<FrameFault>(i % static_cast<std::size_t>(FrameFault::kCount));
    Packet mutant = inj.mutate_frame(corpus[i % corpus.size()], fault);
    auto outcome = parse_packet(mutant);
    ASSERT_NE(outcome.parsed.has_value(), outcome.error.has_value())
        << to_string(fault) << " @" << i;
    if (outcome.ok()) {
      ++parsed;
      expect_parse_invariants(mutant, to_string(fault).c_str());
    } else {
      ++rejected;
      ASSERT_LT(static_cast<std::size_t>(*outcome.error), kParseErrorCount);
    }
  }
  // The mutation mix must exercise both sides of the taxonomy heavily.
  EXPECT_GT(rejected, 5'000u);
  EXPECT_GT(parsed, 5'000u);
}

// The QUIC/DoH analogue of FrameFuzz50k: 50k mutants of UDP-encapsulated
// QUIC and DoH-shaped TLS frames. The parser treats their payloads as
// opaque, so the taxonomy and view invariants must hold exactly as for the
// classic corpus.
TEST(FaultInjection, QuicDohFrameFuzz50k) {
  std::vector<Packet> corpus = {quic_packet(1, true), quic_packet(2, false),
                                doh_packet(3), quic_packet(4, true),
                                doh_packet(5)};
  FaultInjector inj(4077);
  std::size_t rejected = 0, parsed = 0;
  for (std::size_t i = 0; i < 50'000; ++i) {
    auto fault =
        static_cast<FrameFault>(i % static_cast<std::size_t>(FrameFault::kCount));
    Packet mutant = inj.mutate_frame(corpus[i % corpus.size()], fault);
    auto outcome = parse_packet(mutant);
    ASSERT_NE(outcome.parsed.has_value(), outcome.error.has_value())
        << to_string(fault) << " @" << i;
    if (outcome.ok()) {
      ++parsed;
      expect_parse_invariants(mutant, to_string(fault).c_str());
    } else {
      ++rejected;
      ASSERT_LT(static_cast<std::size_t>(*outcome.error), kParseErrorCount);
    }
  }
  EXPECT_GT(rejected, 5'000u);
  EXPECT_GT(parsed, 5'000u);
}

// Pinned malformed-frame census for the QUIC/DoH stream shapes: a fixed
// seeded mutation sequence over a fixed pcap must reproduce the exact
// PcapReadStats totals. Any drift in the reader's damage accounting for the
// new frame shapes — a record silently reclassified, a resync taken at a
// different offset — trips this before it can bias a cleaning census.
TEST(FaultInjection, QuicDohStreamCensusPinned) {
  std::vector<Packet> pkts;
  for (std::uint8_t i = 0; i < 8; ++i) {
    if (i % 3 == 0)
      pkts.push_back(quic_packet(i, true));
    else if (i % 3 == 1)
      pkts.push_back(doh_packet(i));
    else
      pkts.push_back(quic_packet(i, false));
  }
  std::string wire = serialize_pcap(pkts);

  FaultInjector inj(90210);
  PcapReadStats total;
  std::size_t header_rejects = 0;
  for (std::size_t i = 0; i < 128; ++i) {
    auto fault = static_cast<StreamFault>(
        i % static_cast<std::size_t>(StreamFault::kCount));
    std::string mutant = inj.mutate_stream(wire, fault);
    std::stringstream ss(mutant);
    try {
      PcapReader reader(ss, ReadPolicy::SkipAndResync);
      auto got = reader.read_all();
      const auto& st = reader.stats();
      ASSERT_EQ(got.size(), st.records_ok);
      total.records_ok += st.records_ok;
      total.records_truncated += st.records_truncated;
      total.corrupt_headers += st.corrupt_headers;
      total.resyncs += st.resyncs;
      total.bytes_skipped += st.bytes_skipped;
    } catch (const PcapError&) {
      ++header_rejects;
    }
  }
  EXPECT_EQ(total.records_ok, 683u);
  EXPECT_EQ(total.records_truncated, 16u);
  EXPECT_EQ(total.corrupt_headers, 32u);
  EXPECT_EQ(total.resyncs, 16u);
  EXPECT_EQ(total.bytes_skipped, 14232u);
  EXPECT_EQ(header_rejects, 32u);
}

/// The StreamFuzz corpus: seed 31337, 2,000 mutants of a six-record
/// capture (fault i % kCount), each read under both policies.
struct StreamCorpus {
  std::string mutants;  // every mutant, length-prefixed, in draw order
  /// One line per (fault, policy): summed PcapReadStats fields and the
  /// count of PcapError rejections.
  std::vector<std::string> census;
  std::size_t rejected_headers = 0;
  std::size_t total_ok = 0;
};

// Reads every mutant and checks the reader's invariants: no crash, no
// unbounded allocation, and the stats counters always sum to records
// encountered.
void run_stream_corpus(StreamCorpus& out) {
  std::vector<Packet> pkts;
  for (std::uint8_t i = 0; i < 6; ++i)
    pkts.push_back(i % 2 ? tcp_packet_with_options(i) : udp_packet(i));
  std::string wire = serialize_pcap(pkts);

  constexpr std::size_t kFaults = static_cast<std::size_t>(StreamFault::kCount);
  constexpr ReadPolicy kPolicies[] = {ReadPolicy::Strict, ReadPolicy::SkipAndResync};
  PcapReadStats sums[kFaults][2] = {};
  std::size_t rejects[kFaults][2] = {};
  FaultInjector inj(31337);
  for (std::size_t i = 0; i < 2'000; ++i) {
    auto fault = static_cast<StreamFault>(i % kFaults);
    std::string mutant = inj.mutate_stream(wire, fault);
    out.mutants += std::to_string(mutant.size()) + ':' + mutant;
    for (std::size_t p = 0; p < 2; ++p) {
      std::stringstream ss(mutant);
      try {
        PcapReader reader(ss, kPolicies[p]);
        auto got = reader.read_all();
        const auto& st = reader.stats();
        ASSERT_EQ(got.size(), st.records_ok) << to_string(fault) << " @" << i;
        ASSERT_EQ(st.total_records(),
                  st.records_ok + st.records_truncated + st.corrupt_headers);
        ASSERT_LE(st.bytes_skipped, mutant.size());
        for (const auto& pkt : got) ASSERT_LE(pkt.data.size(), kMaxSnaplen);
        PcapReadStats& sum = sums[i % kFaults][p];
        sum.records_ok += st.records_ok;
        sum.records_truncated += st.records_truncated;
        sum.corrupt_headers += st.corrupt_headers;
        sum.resyncs += st.resyncs;
        sum.bytes_skipped += st.bytes_skipped;
        out.total_ok += st.records_ok;
      } catch (const PcapError&) {
        ++rejects[i % kFaults][p];
        ++out.rejected_headers;  // malformed global header: rejection is correct
      }
    }
  }
  for (std::size_t f = 0; f < kFaults; ++f)
    for (std::size_t p = 0; p < 2; ++p) {
      const PcapReadStats& sum = sums[f][p];
      out.census.push_back(
          to_string(static_cast<StreamFault>(f)) + (p ? " resync" : " strict") +
          ": ok " + std::to_string(sum.records_ok) + " truncated " +
          std::to_string(sum.records_truncated) + " corrupt " +
          std::to_string(sum.corrupt_headers) + " resyncs " +
          std::to_string(sum.resyncs) + " skipped " +
          std::to_string(sum.bytes_skipped) + " rejected " +
          std::to_string(rejects[f][p]));
    }
}

TEST(FaultInjection, StreamFuzz) {
  StreamCorpus corpus;
  ASSERT_NO_FATAL_FAILURE(run_stream_corpus(corpus));
  EXPECT_GT(corpus.rejected_headers, 0u);  // CorruptMagic / TruncateGlobalHeader hit
  EXPECT_GT(corpus.total_ok, 0u);          // plenty of records still ingested
}

// The StreamFuzz corpus and the reader's census of it are pinned: the same
// mutant bytes, and per (fault, policy) the same PcapReadStats sums and
// global-header rejections.
TEST(FaultInjection, StreamCorpusPinned) {
  StreamCorpus corpus;
  ASSERT_NO_FATAL_FAILURE(run_stream_corpus(corpus));
  EXPECT_EQ(core::fnv1a64(corpus.mutants), 0x0ac9f08fb64c6e7dull);
  EXPECT_EQ(corpus.census, (std::vector<std::string>{
      "corrupt-magic strict: ok 0 truncated 0 corrupt 0 resyncs 0 skipped 0 rejected 250",
      "corrupt-magic resync: ok 0 truncated 0 corrupt 0 resyncs 0 skipped 0 rejected 250",
      "truncate-global-header strict: ok 0 truncated 0 corrupt 0 resyncs 0 skipped 0 rejected 250",
      "truncate-global-header resync: ok 0 truncated 0 corrupt 0 resyncs 0 skipped 0 rejected 250",
      "hostile-snaplen strict: ok 1500 truncated 0 corrupt 0 resyncs 0 skipped 0 rejected 0",
      "hostile-snaplen resync: ok 1500 truncated 0 corrupt 0 resyncs 0 skipped 0 rejected 0",
      "corrupt-record-length strict: ok 571 truncated 0 corrupt 250 resyncs 0 skipped 0 rejected 0",
      "corrupt-record-length resync: ok 1250 truncated 0 corrupt 250 resyncs 212 skipped 26167 rejected 0",
      "zero-length-record strict: ok 1750 truncated 0 corrupt 0 resyncs 0 skipped 0 rejected 0",
      "zero-length-record resync: ok 1750 truncated 0 corrupt 0 resyncs 0 skipped 0 rejected 0",
      // Every MidRecordTruncate mutant is a truncated record, including the
      // 11 cut 1-3 bytes into a record header.
      "mid-record-truncate strict: ok 664 truncated 250 corrupt 0 resyncs 0 skipped 0 rejected 0",
      "mid-record-truncate resync: ok 664 truncated 250 corrupt 0 resyncs 0 skipped 0 rejected 0",
      "garbage-tail strict: ok 1500 truncated 0 corrupt 250 resyncs 0 skipped 0 rejected 0",
      "garbage-tail resync: ok 1500 truncated 0 corrupt 250 resyncs 0 skipped 11782 rejected 0",
      "bit-flip-anywhere strict: ok 1261 truncated 0 corrupt 49 resyncs 0 skipped 0 rejected 11",
      "bit-flip-anywhere resync: ok 1381 truncated 0 corrupt 49 resyncs 41 skipped 5028 rejected 11"}));
}

// End-to-end degradation: a trace whose frames were mauled still cleans
// without crashing, and every rejected frame lands in the malformed census.
TEST(FaultInjection, MutatedFramesSurfaceInCleaningTaxonomy) {
  FaultInjector inj(7);
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < 1'000; ++i) {
    Packet mutant = inj.mutate_frame(tcp_packet_with_options(1));
    auto outcome = parse_packet(mutant);
    if (!outcome.ok()) {
      ++rejected;
      EXPECT_LT(static_cast<std::size_t>(*outcome.error), kParseErrorCount);
    }
  }
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace sugar::net
