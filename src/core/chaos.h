// Deterministic chaos injection for the serving plane. A ChaosInjector
// owns one seeded decision stream PER SITE: the n-th draw at a site fires
// iff splitmix64(seed, site, n) falls below that site's probability, so a
// (seed, site, draw-index) triple always decides the same way — chaos runs
// are replayable the same way net::FaultInjector's frame mutations are, and
// firing at one site never perturbs another site's stream. Draw indices are
// per-site atomic counters. Serve rounds run on the pump thread, so a
// seeded chaos run draws in stream order and replays exactly at any pool
// width (ServeDeterminism.ChaosRunsReplayAtAllWidths) — unless a latency
// budget or watchdog makes faults follow the wall clock, or another thread
// (an idle evictor) classifies through the same injector. Chaos-off runs
// are unaffected: every injection point is a single branch on a null
// pointer.
//
// Sites cover the fault classes the crash-tolerance arc needs: worker
// stalls, classifier latency spikes and hard faults, flow-table allocation
// failure, and disk-full / short-write / rename faults behind the core::Io
// shim (ChaosIo) used by snapshot writes and core::artifact.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "core/artifact.h"
#include "core/io.h"

namespace sugar::core {

enum class ChaosSite : std::uint8_t {
  kShardStall = 0,      // a shard's fold sleeps mid-round
  kClassifierDelay,     // classify() latency spike
  kClassifierFault,     // classify() hard failure (simulated exception)
  kFlowTableAlloc,      // flow-table slot allocation fails
  kIoWriteFail,         // write_file refuses outright (disk full)
  kIoShortWrite,        // write_file persists a prefix, then fails
  kIoRenameFail,        // rename_file fails (commit step)
  kCount,
};
constexpr std::size_t kChaosSiteCount = static_cast<std::size_t>(ChaosSite::kCount);
const char* to_string(ChaosSite site);

struct ChaosConfig {
  std::uint64_t seed = 0;
  /// Per-site fire probability in [0, 1]; default 0 everywhere, so a
  /// default-constructed config injects nothing.
  std::array<double, kChaosSiteCount> probability{};
  /// Sleep applied when kShardStall fires.
  std::uint64_t stall_usec = 20'000;
  /// Sleep applied when kClassifierDelay fires.
  std::uint64_t classifier_delay_usec = 2'000;

  ChaosConfig& with(ChaosSite site, double p) {
    probability[static_cast<std::size_t>(site)] = p;
    return *this;
  }
};

class ChaosInjector {
 public:
  explicit ChaosInjector(ChaosConfig cfg);

  [[nodiscard]] const ChaosConfig& config() const { return cfg_; }

  /// Draws the site's next decision (advances its draw counter). Always
  /// false, without a draw, when the site probability is 0.
  bool should_fire(ChaosSite site);

  /// should_fire + the site's configured sleep (kShardStall /
  /// kClassifierDelay), dozing in 1ms slices while polling `cancel` so a
  /// cooperative round abort can cut a stall short. Returns whether the
  /// site fired.
  bool maybe_stall(ChaosSite site, const std::atomic<bool>* cancel = nullptr);

  [[nodiscard]] std::uint64_t draws(ChaosSite site) const {
    return draws_[static_cast<std::size_t>(site)].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t fired(ChaosSite site) const {
    return fired_[static_cast<std::size_t>(site)].load(std::memory_order_relaxed);
  }

  /// {seed, sites: [{site, probability, draws, fired}...]} — the chaos
  /// section of a bench artifact.
  [[nodiscard]] Json to_json() const;

 private:
  ChaosConfig cfg_;
  std::array<std::atomic<std::uint64_t>, kChaosSiteCount> draws_{};
  std::array<std::atomic<std::uint64_t>, kChaosSiteCount> fired_{};
};

/// Io shim that injects disk-full, short-write and rename faults into an
/// underlying Io (the real filesystem by default). Reads pass through
/// untouched — restore-side robustness is exercised with corrupted bytes,
/// not phantom read errors.
class ChaosIo final : public Io {
 public:
  explicit ChaosIo(ChaosInjector& chaos, Io* base = nullptr)
      : chaos_(chaos), base_(base ? *base : real_io()) {}

  bool write_file(const std::string& path, std::string_view content,
                  std::string* error) override;
  bool rename_file(const std::string& from, const std::string& to,
                   std::string* error) override;
  void remove_file(const std::string& path) override;
  bool read_file(const std::string& path, std::string& out,
                 std::string* error) override;
  bool append_file(const std::string& path, std::string_view content,
                   std::string* error) override;

 private:
  ChaosInjector& chaos_;
  Io& base_;
};

}  // namespace sugar::core
