// Classic libpcap file format reader/writer (no external dependency).
// Supports the microsecond and nanosecond magics in both byte orders on
// read, and writes little-endian microsecond files. Every header field goes
// through net::ByteReader / ByteWriter (net/bytes.h), so the result never
// depends on the host's byte order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/packet.h"

namespace sugar::net {

class PcapError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Upper bound accepted for the global-header snaplen. Larger claimed values
/// (a hostile 0xFFFFFFFF, say) are clamped so per-record allocation bounds
/// never trust the file. 256 KiB comfortably covers jumbo frames.
constexpr std::uint32_t kMaxSnaplen = 256 * 1024;

/// Bytes of the global header that opens a file and of each record header.
inline constexpr std::size_t kPcapGlobalHeaderBytes = 24;
inline constexpr std::size_t kPcapRecordHeaderBytes = 16;

struct PcapFileInfo {
  std::uint16_t version_major = 2;
  std::uint16_t version_minor = 4;
  std::uint32_t snaplen = 65535;
  std::uint32_t link_type = 1;  // LINKTYPE_ETHERNET
  bool nanosecond = false;
  /// The file is big-endian: its header fields are read with the u*be
  /// accessors. (Little-endian files, which PcapWriter writes, use u*le.)
  bool swapped = false;
};

/// Decodes a file's first four bytes. The microsecond and nanosecond magics
/// are accepted in either byte order: sets `info.nanosecond` and
/// `info.swapped` and returns true, or returns false for any other value
/// (or fewer than four bytes).
bool decode_pcap_magic(std::span<const std::uint8_t> head, PcapFileInfo& info);

/// How the reader reacts to a corrupt record header mid-stream.
enum class ReadPolicy : std::uint8_t {
  /// Stop at the first implausible record header (libpcap-like). The
  /// corruption is still counted in stats(), never silent.
  Strict,
  /// Scan forward byte-by-byte for the next plausible record header and
  /// resume reading there. Recovers the tail of damaged captures.
  SkipAndResync,
};

/// Ingestion census. Every record header the reader encounters lands in
/// exactly one of the first three counters, so
/// records_ok + records_truncated + corrupt_headers == total_records().
struct PcapReadStats {
  std::size_t records_ok = 0;         // fully read records
  std::size_t records_truncated = 0;  // header or data cut short by EOF
  std::size_t corrupt_headers = 0;    // implausible record headers
  std::size_t resyncs = 0;            // successful forward resyncs
  std::size_t bytes_skipped = 0;      // bytes scanned over while resyncing

  [[nodiscard]] std::size_t total_records() const {
    return records_ok + records_truncated + corrupt_headers;
  }
};

/// Streaming reader. Throws PcapError on malformed global headers; damaged
/// records are counted in stats() and handled per the ReadPolicy instead of
/// silently ending the stream.
class PcapReader {
 public:
  explicit PcapReader(std::istream& in, ReadPolicy policy = ReadPolicy::Strict);

  [[nodiscard]] const PcapFileInfo& info() const { return info_; }
  [[nodiscard]] const PcapReadStats& stats() const { return stats_; }
  [[nodiscard]] ReadPolicy policy() const { return policy_; }

  /// Reads the next record into out. Returns false at end of stream.
  bool next(Packet& out);

  /// Drains the remaining records.
  std::vector<Packet> read_all();

 private:
  [[nodiscard]] bool plausible_record(std::uint32_t incl_len,
                                      std::uint32_t orig_len) const;
  /// Scans forward from `from` for a plausible record header; positions the
  /// stream there and returns true, or consumes the rest and returns false.
  bool resync(std::streamoff from);

  std::istream& in_;
  PcapFileInfo info_;
  PcapReadStats stats_;
  ReadPolicy policy_;
  bool done_ = false;
};

/// Streaming writer; emits the global header on construction.
class PcapWriter {
 public:
  explicit PcapWriter(std::ostream& out, std::uint32_t snaplen = 65535,
                      std::uint32_t link_type = 1);

  void write(const Packet& pkt);
  void write_all(const std::vector<Packet>& pkts);

 private:
  std::ostream& out_;
  std::uint32_t snaplen_;
};

/// File-path conveniences.
std::vector<Packet> read_pcap_file(const std::string& path);
/// As above with an explicit policy; fills *stats when non-null.
std::vector<Packet> read_pcap_file(const std::string& path, ReadPolicy policy,
                                   PcapReadStats* stats = nullptr);
void write_pcap_file(const std::string& path, const std::vector<Packet>& pkts);

}  // namespace sugar::net
