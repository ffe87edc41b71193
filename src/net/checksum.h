// RFC 1071 Internet checksum, plus the TCP/UDP pseudo-header variants for
// IPv4 and IPv6. Used both when serializing synthetic packets and when the
// Pcap-Encoder pretext task verifies header checksums. The CRC32 that seals
// snapshot sections and store pages is core::crc32 (core/crc32.h).
#pragma once

#include <cstdint>
#include <span>

#include "net/addr.h"

namespace sugar::net {

/// One's-complement sum over a byte span (odd length allowed; final byte is
/// padded with a zero, per RFC 1071).
std::uint32_t checksum_partial(std::span<const std::uint8_t> data, std::uint32_t acc = 0);

/// Folds a partial sum and complements it into a final checksum value.
std::uint16_t checksum_finish(std::uint32_t acc);

/// Plain checksum over a span (IPv4 header checksum).
std::uint16_t checksum(std::span<const std::uint8_t> data);

/// TCP/UDP/ICMPv6 checksum with the IPv4 pseudo header. `segment` covers the
/// transport header plus payload, with its checksum field zeroed.
std::uint16_t l4_checksum_v4(Ipv4Address src, Ipv4Address dst, std::uint8_t proto,
                             std::span<const std::uint8_t> segment);

/// Same with the IPv6 pseudo header.
std::uint16_t l4_checksum_v6(const Ipv6Address& src, const Ipv6Address& dst,
                             std::uint8_t proto, std::span<const std::uint8_t> segment);

}  // namespace sugar::net
