#include "net/replay.h"

#include <algorithm>
#include <cmath>

namespace sugar::net {

ReplaySource::ReplaySource(std::vector<Packet> packets, ReplayOptions opts)
    : packets_(std::move(packets)), opts_(opts) {
  if (!packets_.empty()) {
    std::uint64_t lo = packets_.front().ts_usec, hi = packets_.front().ts_usec;
    for (const Packet& p : packets_) {
      lo = std::min(lo, p.ts_usec);
      hi = std::max(hi, p.ts_usec);
    }
    span_usec_ = hi - lo;
  }
}

bool ReplaySource::next(Packet& out) {
  if (packets_.empty()) return false;
  if (pos_ >= packets_.size()) {
    ++loop_;
    if (opts_.loops != 0 && loop_ >= opts_.loops) return false;
    pos_ = 0;
  }
  out = packets_[pos_++];
  if (opts_.offered_pps > 0) {
    out.ts_usec = opts_.start_usec +
                  static_cast<std::uint64_t>(std::llround(
                      static_cast<double>(emitted_) * 1e6 / opts_.offered_pps));
  } else {
    // Shift each loop past the previous one so time never runs backwards
    // at the wrap (the +1 keeps zero-span traces strictly advancing).
    out.ts_usec += static_cast<std::uint64_t>(loop_) * (span_usec_ + 1);
  }
  ++emitted_;
  return true;
}

void ReplaySource::reset() {
  emitted_ = 0;
  pos_ = 0;
  loop_ = 0;
}

}  // namespace sugar::net
