// splitmix64, the finalizer of Steele, Lea and Flood's SplitMix64
// generator: one call turns any 64-bit input into a well-mixed 64-bit
// value. Every index-derived stream in the project hashes through it —
// per-tree RNG seeds (ml::tree_seed), chaos decisions (ChaosInjector), the
// out-of-core chunk seeds and flow split, and the streaming gate's data.
#pragma once

#include <cstdint>

namespace sugar::core {

/// One SplitMix64 step: adds the golden-ratio increment, then mixes.
inline std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace sugar::core
