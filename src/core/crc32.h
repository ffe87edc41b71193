// IEEE 802.3 (zlib-compatible) CRC32, in the bottom-most layer so both the
// serve snapshot format and the SUGC on-disk store can seal their sections,
// pages and footer without dragging in the packet-parsing library. It is
// the repo's only CRC32.
//
// Header-only: the 256-entry table is constexpr and the loop is small
// enough that every user inlines it.
#pragma once

#include <cstdint>
#include <span>

namespace sugar::core {

namespace detail {

struct Crc32Table {
  std::uint32_t entries[256];
  constexpr Crc32Table() : entries{} {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      entries[i] = c;
    }
  }
};

inline constexpr Crc32Table kCrc32Table{};

}  // namespace detail

/// CRC32 of a byte span. Chain partial spans by feeding the previous result
/// back through `acc`; crc32("123456789") is 0xCBF43926.
inline std::uint32_t crc32(std::span<const std::uint8_t> data,
                           std::uint32_t acc = 0) {
  std::uint32_t c = acc ^ 0xFFFFFFFFu;
  for (std::uint8_t byte : data)
    c = detail::kCrc32Table.entries[(c ^ byte) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace sugar::core
