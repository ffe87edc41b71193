#include "net/checksum.h"

namespace sugar::net {

std::uint32_t checksum_partial(std::span<const std::uint8_t> data, std::uint32_t acc) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2)
    acc += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
  if (i < data.size()) acc += static_cast<std::uint32_t>(data[i]) << 8;
  return acc;
}

std::uint16_t checksum_finish(std::uint32_t acc) {
  while (acc >> 16) acc = (acc & 0xFFFF) + (acc >> 16);
  return static_cast<std::uint16_t>(~acc);
}

std::uint16_t checksum(std::span<const std::uint8_t> data) {
  return checksum_finish(checksum_partial(data));
}

std::uint16_t l4_checksum_v4(Ipv4Address src, Ipv4Address dst, std::uint8_t proto,
                             std::span<const std::uint8_t> segment) {
  std::uint32_t acc = 0;
  acc += src.value >> 16;
  acc += src.value & 0xFFFF;
  acc += dst.value >> 16;
  acc += dst.value & 0xFFFF;
  acc += proto;
  acc += static_cast<std::uint32_t>(segment.size());
  return checksum_finish(checksum_partial(segment, acc));
}

std::uint16_t l4_checksum_v6(const Ipv6Address& src, const Ipv6Address& dst,
                             std::uint8_t proto, std::span<const std::uint8_t> segment) {
  std::uint32_t acc = 0;
  acc = checksum_partial(std::span{src.octets}, acc);
  acc = checksum_partial(std::span{dst.octets}, acc);
  // Pseudo header carries a 32-bit length and next-header fields.
  acc += static_cast<std::uint32_t>(segment.size() >> 16);
  acc += static_cast<std::uint32_t>(segment.size() & 0xFFFF);
  acc += proto;
  return checksum_finish(checksum_partial(segment, acc));
}

}  // namespace sugar::net
