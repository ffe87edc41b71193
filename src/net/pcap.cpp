#include "net/pcap.h"

#include "core/trace.h"
#include "net/bytes.h"

#include <algorithm>
#include <array>
#include <fstream>

namespace sugar::net {
namespace {

constexpr std::uint32_t kMagicUsec = 0xA1B2C3D4;
constexpr std::uint32_t kMagicNsec = 0xA1B23C4D;

std::uint16_t u16(ByteReader& r, bool big_endian) {
  return big_endian ? r.u16be() : r.u16le();
}
std::uint32_t u32(ByteReader& r, bool big_endian) {
  return big_endian ? r.u32be() : r.u32le();
}

/// Reads up to `buf.size()` bytes; returns how many arrived before EOF.
std::size_t read_up_to(std::istream& in, std::span<std::uint8_t> buf) {
  in.read(reinterpret_cast<char*>(buf.data()),
          static_cast<std::streamsize>(buf.size()));
  return static_cast<std::size_t>(in.gcount());
}

void write_bytes(std::ostream& out, std::span<const std::uint8_t> bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

bool decode_pcap_magic(std::span<const std::uint8_t> head, PcapFileInfo& info) {
  // The writer stores the magic in its own byte order, so a big-endian
  // file's magic reads byte-swapped as little-endian.
  ByteReader r{head};
  const std::uint32_t le = r.u32le();
  r.seek(0);
  const std::uint32_t be = r.u32be();
  if (!r.ok()) return false;
  for (const bool big_endian : {false, true}) {
    const std::uint32_t magic = big_endian ? be : le;
    if (magic == kMagicUsec || magic == kMagicNsec) {
      info.nanosecond = magic == kMagicNsec;
      info.swapped = big_endian;
      return true;
    }
  }
  return false;
}

PcapReader::PcapReader(std::istream& in, ReadPolicy policy)
    : in_(in), policy_(policy) {
  std::array<std::uint8_t, kPcapGlobalHeaderBytes> buf{};
  const std::size_t got = read_up_to(in_, buf);
  if (got < 4) throw PcapError("pcap: empty stream");
  if (!decode_pcap_magic(buf, info_)) throw PcapError("pcap: bad magic");

  ByteReader r{std::span{buf}.first(got)};
  r.skip(4);
  const bool big = info_.swapped;
  info_.version_major = u16(r, big);
  info_.version_minor = u16(r, big);
  r.skip(8);  // thiszone, sigfigs
  info_.snaplen = u32(r, big);
  info_.link_type = u32(r, big);
  if (!r.ok()) throw PcapError("pcap: truncated global header");
  if (info_.version_major != 2) throw PcapError("pcap: unsupported version");
  // Never trust the claimed snaplen for allocation bounds: a hostile
  // 0xFFFFFFFF (or a "no limit" 0) is clamped to kMaxSnaplen.
  if (info_.snaplen == 0 || info_.snaplen > kMaxSnaplen) info_.snaplen = kMaxSnaplen;
}

bool PcapReader::plausible_record(std::uint32_t incl_len,
                                  std::uint32_t orig_len) const {
  // A credible classic-pcap record captures at most snaplen bytes of an
  // original frame at least that long; the original can't be absurd either.
  return incl_len <= info_.snaplen && orig_len >= incl_len &&
         orig_len <= (1u << 26);
}

bool PcapReader::resync(std::streamoff from) {
  constexpr auto kHdr = static_cast<std::streamoff>(kPcapRecordHeaderBytes);
  in_.clear();
  in_.seekg(0, std::ios::end);
  const std::streamoff end = in_.tellg();

  auto header_at = [&](std::streamoff off, std::uint32_t& incl,
                       std::uint32_t& orig) {
    std::array<std::uint8_t, kPcapRecordHeaderBytes> hdr{};
    in_.clear();
    in_.seekg(off);
    if (read_up_to(in_, hdr) < hdr.size()) return false;
    ByteReader r{hdr};
    r.skip(8);  // ts_sec, ts_frac
    incl = u32(r, info_.swapped);
    orig = u32(r, info_.swapped);
    return true;
  };

  for (std::streamoff off = from; off + kHdr <= end; ++off) {
    std::uint32_t incl, orig;
    if (!header_at(off, incl, orig) || !plausible_record(incl, orig)) continue;
    // Runs of zero bytes (e.g. zeroed MAC addresses in frame data) decode as
    // chains of plausible zero-length records; refuse to lock onto an empty
    // candidate so resync lands on real capture data, not phantoms.
    if (incl == 0) continue;
    // A lone plausible 16-byte window is weak evidence (arbitrary payload
    // bytes qualify). Demand a clean chain: the candidate record must end
    // exactly at EOF or be followed by another plausible header.
    std::streamoff rec_end = off + kHdr + static_cast<std::streamoff>(incl);
    if (rec_end > end) continue;
    if (rec_end != end) {
      std::uint32_t incl2, orig2;
      // The successor must be nonzero too: a window straddling a real record
      // header reads its timestamp as a tiny incl_len, and the zero bytes
      // after it then masquerade as an empty follow-up record.
      if (!header_at(rec_end, incl2, orig2) || incl2 == 0 ||
          !plausible_record(incl2, orig2))
        continue;
    }
    // `from - 1` is where the corrupt header started; everything up to the
    // resync point was skipped.
    stats_.bytes_skipped += static_cast<std::size_t>(off - (from - 1));
    ++stats_.resyncs;
    in_.clear();
    in_.seekg(off);
    return true;
  }
  // No plausible header before EOF: the rest of the stream is skipped.
  in_.clear();
  in_.seekg(0, std::ios::end);
  if (end > from - 1)
    stats_.bytes_skipped += static_cast<std::size_t>(end - (from - 1));
  return false;
}

bool PcapReader::next(Packet& out) {
  if (done_) return false;
  for (;;) {
    std::streamoff rec_start = in_.tellg();
    std::array<std::uint8_t, kPcapRecordHeaderBytes> hdr{};
    const std::size_t got = read_up_to(in_, hdr);
    if (got < hdr.size()) {
      // No byte left is a clean end of stream; 1-15 are a record header
      // cut short.
      if (got > 0) ++stats_.records_truncated;
      done_ = true;
      return false;
    }
    ByteReader r{hdr};
    const std::uint32_t ts_sec = u32(r, info_.swapped);
    const std::uint32_t ts_frac = u32(r, info_.swapped);
    const std::uint32_t incl_len = u32(r, info_.swapped);
    const std::uint32_t orig_len = u32(r, info_.swapped);
    if (!plausible_record(incl_len, orig_len)) {
      ++stats_.corrupt_headers;
      if (policy_ == ReadPolicy::Strict || rec_start < 0 || !resync(rec_start + 1)) {
        done_ = true;
        return false;
      }
      continue;  // re-read the header at the resynced position
    }

    out.data.resize(incl_len);
    if (incl_len > 0 &&
        !in_.read(reinterpret_cast<char*>(out.data.data()),
                  static_cast<std::streamsize>(incl_len))) {
      out.data.resize(static_cast<std::size_t>(in_.gcount()));
      ++stats_.records_truncated;  // data cut short by EOF
      done_ = true;
      return false;
    }
    std::uint64_t usec = info_.nanosecond ? ts_frac / 1000 : ts_frac;
    out.ts_usec = static_cast<std::uint64_t>(ts_sec) * 1'000'000 + usec;
    ++stats_.records_ok;
    return true;
  }
}

std::vector<Packet> PcapReader::read_all() {
  SUGAR_TRACE_SPAN("pcap.read_all");
  const PcapReadStats before = stats_;
  std::vector<Packet> pkts;
  std::uint64_t bytes = 0;
  Packet p;
  while (next(p)) {
    bytes += p.data.size();
    pkts.push_back(std::move(p));
  }
  SUGAR_TRACE_COUNT("pcap.records_ok", stats_.records_ok - before.records_ok);
  SUGAR_TRACE_COUNT("pcap.records_truncated",
                    stats_.records_truncated - before.records_truncated);
  SUGAR_TRACE_COUNT("pcap.corrupt_headers",
                    stats_.corrupt_headers - before.corrupt_headers);
  SUGAR_TRACE_COUNT("pcap.resyncs", stats_.resyncs - before.resyncs);
  SUGAR_TRACE_COUNT("pcap.bytes_skipped",
                    stats_.bytes_skipped - before.bytes_skipped);
  SUGAR_TRACE_COUNT("pcap.bytes_read", bytes);
  return pkts;
}

PcapWriter::PcapWriter(std::ostream& out, std::uint32_t snaplen, std::uint32_t link_type)
    : out_(out), snaplen_(snaplen) {
  ByteWriter w(kPcapGlobalHeaderBytes);
  w.u32le(kMagicUsec);
  w.u16le(2);
  w.u16le(4);
  w.u32le(0);  // thiszone
  w.u32le(0);  // sigfigs
  w.u32le(snaplen);
  w.u32le(link_type);
  write_bytes(out_, w.data());
}

void PcapWriter::write(const Packet& pkt) {
  const std::size_t incl = std::min<std::size_t>(pkt.data.size(), snaplen_);
  ByteWriter w(kPcapRecordHeaderBytes);
  w.u32le(static_cast<std::uint32_t>(pkt.ts_usec / 1'000'000));
  w.u32le(static_cast<std::uint32_t>(pkt.ts_usec % 1'000'000));
  w.u32le(static_cast<std::uint32_t>(incl));
  w.u32le(static_cast<std::uint32_t>(pkt.data.size()));
  write_bytes(out_, w.data());
  write_bytes(out_, std::span{pkt.data}.first(incl));
}

void PcapWriter::write_all(const std::vector<Packet>& pkts) {
  for (const auto& p : pkts) write(p);
}

std::vector<Packet> read_pcap_file(const std::string& path) {
  return read_pcap_file(path, ReadPolicy::Strict);
}

std::vector<Packet> read_pcap_file(const std::string& path, ReadPolicy policy,
                                   PcapReadStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw PcapError("pcap: cannot open " + path);
  PcapReader reader(in, policy);
  auto pkts = reader.read_all();
  if (stats) *stats = reader.stats();
  return pkts;
}

void write_pcap_file(const std::string& path, const std::vector<Packet>& pkts) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw PcapError("pcap: cannot create " + path);
  PcapWriter writer(out);
  writer.write_all(pkts);
}

}  // namespace sugar::net
