// Generator for the extraneous ("spurious") traffic of Table 13: ARP, DHCP,
// LLMNR/NBNS/MDNS, ICMP, NTP, STUN, SSDP, ... These packets carry no class
// label; leaving them in a dataset corrupts the classification task, which
// is precisely why the cleaning pipeline must remove them.
#pragma once

#include <vector>

#include "net/packet.h"
#include "net/proto.h"
#include "trafficgen/rng.h"

namespace sugar::trafficgen {

/// One spurious packet of the given category at the given time.
net::Packet make_spurious_packet(net::SpuriousCategory category, Rng& rng,
                                 std::uint64_t ts_usec);

/// A category drawn with weights approximating Table 13's observed mix
/// (link-local and network management dominate).
net::SpuriousCategory random_spurious_category(Rng& rng);

/// Sprinkles `fraction` of spurious packets (relative to the final total)
/// uniformly through an existing, time-ordered trace, in one pass. Returns,
/// in descending order, the index of the original packet each spurious
/// packet was inserted before; packets at a repeated index are in reverse
/// draw order.
std::vector<std::size_t> inject_spurious(std::vector<net::Packet>& trace,
                                         double fraction, Rng& rng);

}  // namespace sugar::trafficgen
