#include "net/fault.h"

#include <algorithm>
#include <map>

#include "net/bytes.h"
#include "net/flow.h"
#include "net/parser.h"
#include "net/pcap.h"

namespace sugar::net {
namespace {

constexpr std::size_t kEthSize = 14;

/// Record boundaries of a serialized pcap blob (offsets of record headers).
/// Tolerates truncated tails; stops at the first implausible length so fault
/// sites always land inside the well-formed prefix.
std::vector<std::size_t> record_offsets(const std::string& wire) {
  std::vector<std::size_t> recs;
  const std::span<const std::uint8_t> bytes{
      reinterpret_cast<const std::uint8_t*>(wire.data()), wire.size()};
  PcapFileInfo info;
  if (bytes.size() < kPcapGlobalHeaderBytes || !decode_pcap_magic(bytes, info))
    return recs;
  ByteReader r{bytes};
  std::size_t off = kPcapGlobalHeaderBytes;
  while (off + kPcapRecordHeaderBytes <= bytes.size()) {
    r.seek(off + 8);  // incl_len
    const std::uint32_t incl = info.swapped ? r.u32be() : r.u32le();
    if (incl > (1u << 24)) break;  // already-corrupt length; stop walking
    recs.push_back(off);
    off += kPcapRecordHeaderBytes + incl;
  }
  return recs;
}

}  // namespace

std::string to_string(FrameFault f) {
  switch (f) {
    case FrameFault::TruncateEthernet: return "truncate-ethernet";
    case FrameFault::TruncateL3: return "truncate-l3";
    case FrameFault::TruncateL4: return "truncate-l4";
    case FrameFault::TruncatePayload: return "truncate-payload";
    case FrameFault::TruncateRandom: return "truncate-random";
    case FrameFault::BitFlip: return "bit-flip";
    case FrameFault::LyingIpv4TotalLength: return "lying-ipv4-total-length";
    case FrameFault::LyingIpv4Ihl: return "lying-ipv4-ihl";
    case FrameFault::LyingTcpDataOffset: return "lying-tcp-data-offset";
    case FrameFault::ZeroTcpOptionLength: return "zero-tcp-option-length";
    case FrameFault::OversizedTcpOption: return "oversized-tcp-option";
    case FrameFault::GarbageEtherType: return "garbage-ethertype";
    case FrameFault::kCount: break;
  }
  return "?";
}

std::string to_string(StreamFault f) {
  switch (f) {
    case StreamFault::CorruptMagic: return "corrupt-magic";
    case StreamFault::TruncateGlobalHeader: return "truncate-global-header";
    case StreamFault::HostileSnaplen: return "hostile-snaplen";
    case StreamFault::CorruptRecordLength: return "corrupt-record-length";
    case StreamFault::ZeroLengthRecord: return "zero-length-record";
    case StreamFault::MidRecordTruncate: return "mid-record-truncate";
    case StreamFault::GarbageTail: return "garbage-tail";
    case StreamFault::BitFlipAnywhere: return "bit-flip-anywhere";
    case StreamFault::kCount: break;
  }
  return "?";
}

std::string to_string(SequenceFault f) {
  switch (f) {
    case SequenceFault::ReorderWindow: return "reorder-window";
    case SequenceFault::DuplicateDelivery: return "duplicate-delivery";
    case SequenceFault::TruncateMidFlow: return "truncate-mid-flow";
    case SequenceFault::kCount: break;
  }
  return "?";
}

std::size_t FaultInjector::index_below(std::size_t n) {
  if (n == 0) return 0;
  return std::uniform_int_distribution<std::size_t>{0, n - 1}(rng_);
}

void FaultInjector::flip_bits(std::uint8_t* data, std::size_t size) {
  if (size == 0) return;
  std::size_t flips = 1 + index_below(8);
  for (std::size_t i = 0; i < flips; ++i)
    data[index_below(size)] ^= static_cast<std::uint8_t>(1u << index_below(8));
}

Packet FaultInjector::mutate_frame(const Packet& src, FrameFault fault) {
  Packet out = src;
  if (out.data.empty()) return out;

  // Layer boundaries of the *well-formed* input frame; the mutations below
  // use them as cut/overwrite sites.
  auto clean = parse_packet(src);
  std::size_t size = out.data.size();
  std::size_t l3 = clean.ok() ? clean.parsed->l3_offset : kEthSize;
  std::size_t l4 = clean.ok() ? clean.parsed->l4_offset : 0;
  std::size_t payload = clean.ok() ? clean.parsed->payload_offset : 0;
  bool has_ipv4 = clean.ok() && clean.parsed->ipv4.has_value();
  bool has_tcp = clean.ok() && clean.parsed->tcp.has_value();
  std::size_t tcp_hdr_len = has_tcp ? clean.parsed->tcp->header_len() : 0;

  auto cut_within = [&](std::size_t lo, std::size_t hi) {
    if (hi > size) hi = size;
    if (lo >= hi) {
      flip_bits(out.data.data(), size);
      return;
    }
    out.data.resize(lo + index_below(hi - lo));
  };

  switch (fault) {
    case FrameFault::TruncateEthernet:
      cut_within(0, std::min(size, kEthSize));
      break;
    case FrameFault::TruncateL3:
      cut_within(l3, l4 > l3 ? l4 : size);
      break;
    case FrameFault::TruncateL4:
      cut_within(l4, payload > l4 ? payload : size);
      break;
    case FrameFault::TruncatePayload:
      cut_within(payload, size);
      break;
    case FrameFault::TruncateRandom:
      cut_within(0, size);
      break;
    case FrameFault::BitFlip:
      flip_bits(out.data.data(), size);
      break;
    case FrameFault::LyingIpv4TotalLength:
      if (has_ipv4 && l3 + 4 <= size) {
        std::uint16_t lie = static_cast<std::uint16_t>(rng_());
        out.data[l3 + 2] = static_cast<std::uint8_t>(lie >> 8);
        out.data[l3 + 3] = static_cast<std::uint8_t>(lie);
      } else {
        flip_bits(out.data.data(), size);
      }
      break;
    case FrameFault::LyingIpv4Ihl:
      if (has_ipv4 && l3 < size) {
        out.data[l3] =
            static_cast<std::uint8_t>(0x40 | (rng_() & 0xF));  // version 4, lying IHL
      } else {
        flip_bits(out.data.data(), size);
      }
      break;
    case FrameFault::LyingTcpDataOffset:
      if (has_tcp && l4 + 13 <= size) {
        out.data[l4 + 12] = static_cast<std::uint8_t>((rng_() & 0xF) << 4);
      } else {
        flip_bits(out.data.data(), size);
      }
      break;
    case FrameFault::ZeroTcpOptionLength:
      if (has_tcp && tcp_hdr_len > 20 && l4 + 22 <= size) {
        out.data[l4 + 20] = static_cast<std::uint8_t>(2 + index_below(254));
        out.data[l4 + 21] = 0;
      } else {
        flip_bits(out.data.data(), size);
      }
      break;
    case FrameFault::OversizedTcpOption:
      if (has_tcp && tcp_hdr_len > 20 && l4 + 22 <= size) {
        out.data[l4 + 20] = static_cast<std::uint8_t>(2 + index_below(254));
        out.data[l4 + 21] = 0xFF;
      } else {
        flip_bits(out.data.data(), size);
      }
      break;
    case FrameFault::GarbageEtherType:
      if (size >= kEthSize) {
        out.data[12] = static_cast<std::uint8_t>(rng_());
        out.data[13] = static_cast<std::uint8_t>(rng_());
      } else {
        flip_bits(out.data.data(), size);
      }
      break;
    case FrameFault::kCount:
      break;
  }
  return out;
}

Packet FaultInjector::mutate_frame(const Packet& src) {
  auto f = static_cast<FrameFault>(
      index_below(static_cast<std::size_t>(FrameFault::kCount)));
  return mutate_frame(src, f);
}

std::string FaultInjector::mutate_stream(const std::string& wire, StreamFault fault) {
  std::string out = wire;
  auto* bytes = reinterpret_cast<std::uint8_t*>(out.data());
  auto recs = record_offsets(out);

  auto fallback_flip = [&] {
    flip_bits(bytes, out.size());
  };

  switch (fault) {
    case StreamFault::CorruptMagic:
      if (out.size() >= 4) {
        for (int i = 0; i < 4; ++i) bytes[i] = static_cast<std::uint8_t>(rng_());
      }
      break;
    case StreamFault::TruncateGlobalHeader:
      out.resize(index_below(std::min(out.size(), kPcapGlobalHeaderBytes)));
      break;
    case StreamFault::HostileSnaplen:
      if (out.size() >= 20) {
        for (std::size_t i = 16; i < 20; ++i) bytes[i] = 0xFF;
      }
      break;
    case StreamFault::CorruptRecordLength:
      if (!recs.empty()) {
        // 0xFFFFFFFF is endianness-symmetric, so the lie survives swapped files.
        std::size_t rec = recs[index_below(recs.size())];
        for (std::size_t i = rec + 8; i < rec + 12; ++i) bytes[i] = 0xFF;
      } else {
        fallback_flip();
      }
      break;
    case StreamFault::ZeroLengthRecord:
      if (!recs.empty()) {
        std::size_t rec = recs[index_below(recs.size())];
        out.insert(rec, kPcapRecordHeaderBytes, '\0');
      } else {
        fallback_flip();
      }
      break;
    case StreamFault::MidRecordTruncate:
      if (!recs.empty()) {
        std::size_t i = index_below(recs.size());
        std::size_t lo = recs[i] + 1;  // inside the record header or its data
        std::size_t hi = std::min(i + 1 < recs.size() ? recs[i + 1] : out.size(),
                                  out.size());
        if (lo < hi) out.resize(lo + index_below(hi - lo));
      } else if (!out.empty()) {
        out.resize(index_below(out.size()));
      }
      break;
    case StreamFault::GarbageTail: {
      std::size_t n = 16 + index_below(64);
      for (std::size_t i = 0; i < n; ++i)
        out.push_back(static_cast<char>(static_cast<std::uint8_t>(rng_())));
      break;
    }
    case StreamFault::BitFlipAnywhere:
      fallback_flip();
      break;
    case StreamFault::kCount:
      break;
  }
  return out;
}

std::string FaultInjector::mutate_stream(const std::string& wire) {
  auto f = static_cast<StreamFault>(
      index_below(static_cast<std::size_t>(StreamFault::kCount)));
  return mutate_stream(wire, f);
}

std::vector<Packet> FaultInjector::mutate_sequence(const std::vector<Packet>& pkts,
                                                   SequenceFault fault,
                                                   const SequenceFaultOptions& opt) {
  std::vector<Packet> out;
  switch (fault) {
    case SequenceFault::ReorderWindow: {
      out = pkts;
      const std::size_t w = std::max<std::size_t>(2, opt.reorder_window);
      for (std::size_t lo = 0; lo < out.size(); lo += w) {
        const std::size_t hi = std::min(out.size(), lo + w);
        std::shuffle(out.begin() + static_cast<std::ptrdiff_t>(lo),
                     out.begin() + static_cast<std::ptrdiff_t>(hi), rng_);
      }
      break;
    }
    case SequenceFault::DuplicateDelivery: {
      // Pick (source index, landing slot) pairs first so the RNG draw order
      // is position-independent, then emit originals interleaved with any
      // duplicates that have come due.
      std::bernoulli_distribution dup(std::clamp(opt.duplicate_fraction, 0.0, 1.0));
      constexpr std::size_t kLagMax = 8;  // a dup lands within this many slots
      std::multimap<std::size_t, std::size_t> due;  // landing slot -> source
      for (std::size_t i = 0; i < pkts.size(); ++i)
        if (dup(rng_)) due.emplace(i + 1 + index_below(kLagMax), i);
      out.reserve(pkts.size() + due.size());
      for (std::size_t i = 0; i < pkts.size(); ++i) {
        out.push_back(pkts[i]);
        auto range = due.equal_range(i);
        for (auto it = range.first; it != range.second; ++it)
          out.push_back(pkts[it->second]);
      }
      // Duplicates scheduled past the end of the stream land at the tail.
      for (auto it = due.upper_bound(pkts.size() - 1); it != due.end(); ++it)
        if (it->first >= pkts.size()) out.push_back(pkts[it->second]);
      break;
    }
    case SequenceFault::TruncateMidFlow: {
      // Group packets by canonical bi-flow key (first-appearance order) and
      // cut a sampled fraction of flows after a random prefix.
      std::vector<int> flow_of(pkts.size(), -1);
      std::unordered_map<FlowKey, int, FlowKeyHash> ids;
      std::vector<std::size_t> flow_len;
      for (std::size_t i = 0; i < pkts.size(); ++i) {
        auto parsed = parse_packet(pkts[i]);
        FlowKey key;
        bool forward = false;
        if (!parsed.ok() || !FlowKey::from_parsed(*parsed.parsed, key, forward))
          continue;
        auto [it, fresh] = ids.emplace(key, static_cast<int>(flow_len.size()));
        if (fresh) flow_len.push_back(0);
        flow_of[i] = it->second;
        ++flow_len[static_cast<std::size_t>(it->second)];
      }
      constexpr std::size_t kMinKept = 1;  // packets a cut flow keeps, at least
      std::bernoulli_distribution cut(
          std::clamp(opt.truncate_flow_fraction, 0.0, 1.0));
      std::vector<std::size_t> keep_prefix(flow_len.size());
      for (std::size_t f = 0; f < flow_len.size(); ++f) {
        keep_prefix[f] = flow_len[f];
        if (flow_len[f] > kMinKept && cut(rng_))
          keep_prefix[f] = kMinKept + index_below(flow_len[f] - kMinKept);
      }
      std::vector<std::size_t> seen(flow_len.size(), 0);
      out.reserve(pkts.size());
      for (std::size_t i = 0; i < pkts.size(); ++i) {
        const int f = flow_of[i];
        if (f < 0) {
          out.push_back(pkts[i]);  // keyless packets are never dropped
          continue;
        }
        if (seen[static_cast<std::size_t>(f)]++ < keep_prefix[static_cast<std::size_t>(f)])
          out.push_back(pkts[i]);
      }
      break;
    }
    case SequenceFault::kCount:
      out = pkts;
      break;
  }
  return out;
}

std::vector<Packet> FaultInjector::mutate_sequence(const std::vector<Packet>& pkts,
                                                   const SequenceFaultOptions& opt) {
  auto f = static_cast<SequenceFault>(
      index_below(static_cast<std::size_t>(SequenceFault::kCount)));
  return mutate_sequence(pkts, f, opt);
}

}  // namespace sugar::net
