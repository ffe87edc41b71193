// Streaming replay source: turns an in-memory packet list (trafficgen
// output, or a capture read with net::PcapReader) into an arrival stream
// the serve engine can ingest. The source can loop the trace to synthesize unbounded
// load and can re-space arrivals onto a fixed offered-load schedule
// (packets/second) while preserving delivery order — the knob bench_serve
// sweeps to find the engine's saturation point.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.h"

namespace sugar::net {

struct ReplayOptions {
  /// How many times the packet list is replayed end-to-end. 0 means loop
  /// forever (next() never returns false); the driver bounds the run.
  std::size_t loops = 1;
  /// > 0: rewrite timestamps to a fixed inter-arrival of 1e6/offered_pps
  /// microseconds (global emission index, monotone across loops). 0 keeps
  /// the captured timestamps, shifting each loop so time never runs
  /// backwards between iterations.
  double offered_pps = 0;
  /// Base timestamp of the rewritten schedule (offered_pps > 0).
  std::uint64_t start_usec = 0;
};

/// Pull-based packet stream over an owned packet vector. Not thread-safe;
/// one driver thread pulls and pushes into the engine's bounded queue.
class ReplaySource {
 public:
  explicit ReplaySource(std::vector<Packet> packets, ReplayOptions opts = {});

  /// Next packet in delivery order, with its scheduled arrival timestamp
  /// applied. False when the configured loops are exhausted.
  bool next(Packet& out);

  /// Rewinds to the first packet of the first loop.
  void reset();

  [[nodiscard]] std::size_t size() const { return packets_.size(); }
  /// Total packets this source will emit; 0 when looping forever.
  [[nodiscard]] std::size_t total() const {
    return opts_.loops == 0 ? 0 : packets_.size() * opts_.loops;
  }
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] const ReplayOptions& options() const { return opts_; }

 private:
  std::vector<Packet> packets_;
  ReplayOptions opts_;
  std::uint64_t span_usec_ = 0;  // max - min captured timestamp
  std::uint64_t emitted_ = 0;
  std::size_t pos_ = 0;
  std::size_t loop_ = 0;
};

}  // namespace sugar::net
