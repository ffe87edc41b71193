// Circuit breaker around the primary flow classifier. Wraps a primary
// (the frozen forest) and a fallback (a cheap heuristic) behind the same
// FlowClassifier interface and degrades between them:
//
//   closed ──consecutive faults >= threshold──▶ open
//   open ──cooldown fallback calls served──▶ half-open
//   half-open ──probe fault──▶ open
//   half-open ──consecutive probe successes──▶ closed
//
// A "fault" is either a latency-budget breach (the primary answered, but
// slower than latency_budget_us — the verdict is still used) or an
// injected classifier failure from core::ChaosInjector (the call is
// answered by the fallback instead). While open, every call is served by
// the fallback; half-open admits exactly one probe call to the primary at
// a time (CAS guard) and routes the rest to the fallback, so a recovering
// primary is never stampeded.
//
// All counters are monotone atomics and the first kMaxLoggedTransitions
// state transitions land in a log, so bench_serve's chaos matrix can emit
// the closed→open→half-open→closed timeline and json_check can assert its
// legality. With no chaos injector and no latency budget the
// breaker never sees a fault and is a transparent pass-through — it adds
// nothing to the bit-identity contract's surface.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/artifact.h"
#include "core/chaos.h"
#include "serve/classifier.h"

namespace sugar::serve {

enum class BreakerState : std::uint8_t { kClosed = 0, kOpen, kHalfOpen };
const char* to_string(BreakerState state);

struct BreakerConfig {
  /// Primary-call wall-clock budget in microseconds; 0 disables the
  /// latency tripwire (chaos faults can still trip the breaker).
  std::uint64_t latency_budget_us = 0;
  /// Consecutive faults (closed state) that trip the breaker.
  std::uint32_t failure_threshold = 3;
  /// Fallback calls served while open before probing (half-open).
  std::uint32_t open_cooldown_calls = 64;
  /// Consecutive successful probes that close the breaker again.
  std::uint32_t half_open_successes = 2;

  /// Applies SUGAR_LATENCY_BUDGET_US (strict from_chars; malformed values
  /// are warned about and ignored) on top of `base`.
  static BreakerConfig from_env(BreakerConfig base);
};

/// Transition log bound. The log keeps the FIRST this-many transitions and
/// drops later ones (the counters still count them), so a logged walk
/// always starts from closed, where json_check's legality check starts.
inline constexpr std::size_t kMaxLoggedTransitions = 64;

/// Monotone breaker counters (a point-in-time copy of the atomics).
struct BreakerCounters {
  std::uint64_t primary_calls = 0;    // verdicts produced by the primary
  std::uint64_t fallback_calls = 0;   // verdicts produced by the fallback
  std::uint64_t faults_latency = 0;   // budget breaches
  std::uint64_t faults_injected = 0;  // chaos classifier faults
  std::uint64_t trips = 0;            // closed→open and half-open→open
  std::uint64_t probes = 0;           // half-open primary attempts
  std::uint64_t probe_failures = 0;   // probes that faulted
  std::uint64_t recoveries = 0;       // half-open→closed
};

struct BreakerTransition {
  BreakerState from = BreakerState::kClosed;
  BreakerState to = BreakerState::kClosed;
  std::uint64_t at_call = 0;  // classify() ordinal that caused the edge
};

class CircuitBreakerClassifier final : public FlowClassifier {
 public:
  /// Both classifiers must outlive the breaker and agree on feature_dim.
  /// `chaos` may be null (no injected faults).
  CircuitBreakerClassifier(const FlowClassifier& primary,
                           const FlowClassifier& fallback, BreakerConfig cfg,
                           core::ChaosInjector* chaos = nullptr);

  [[nodiscard]] std::size_t feature_dim() const override {
    return primary_.feature_dim();
  }
  [[nodiscard]] int num_classes() const override {
    return primary_.num_classes();
  }
  [[nodiscard]] int classify(const float* features) const override;

  [[nodiscard]] BreakerState state() const {
    return static_cast<BreakerState>(state_.load(std::memory_order_acquire));
  }
  [[nodiscard]] const BreakerConfig& config() const { return cfg_; }
  [[nodiscard]] BreakerCounters counters() const;
  [[nodiscard]] std::vector<BreakerTransition> transitions() const;

  /// {state, counters{...}, transitions: [{from, to, at_call}...]}.
  [[nodiscard]] core::Json to_json() const;

 private:
  /// Runs the primary with chaos + budget accounting. Sets `fault` when the
  /// call breached the budget or was replaced by an injected failure;
  /// `injected` distinguishes the latter (the returned verdict is unusable).
  int call_primary(const float* features, bool& fault, bool& injected) const;
  /// state_ from→to edge under mu_ (false if another thread moved first).
  bool transition(BreakerState from, BreakerState to,
                  std::uint64_t at_call) const;

  const FlowClassifier& primary_;
  const FlowClassifier& fallback_;
  BreakerConfig cfg_;
  core::ChaosInjector* chaos_;

  // classify() is const on the interface; breaker bookkeeping is interior
  // state, hence mutable atomics guarded transitions.
  mutable std::atomic<std::uint8_t> state_{0};
  mutable std::atomic<std::uint64_t> calls_{0};
  mutable std::atomic<std::uint32_t> consecutive_faults_{0};
  mutable std::atomic<std::uint32_t> open_calls_{0};
  mutable std::atomic<std::uint32_t> half_open_streak_{0};
  mutable std::atomic<bool> probe_in_flight_{false};

  mutable std::atomic<std::uint64_t> primary_calls_{0};
  mutable std::atomic<std::uint64_t> fallback_calls_{0};
  mutable std::atomic<std::uint64_t> faults_latency_{0};
  mutable std::atomic<std::uint64_t> faults_injected_{0};
  mutable std::atomic<std::uint64_t> trips_{0};
  mutable std::atomic<std::uint64_t> probes_{0};
  mutable std::atomic<std::uint64_t> probe_failures_{0};
  mutable std::atomic<std::uint64_t> recoveries_{0};

  mutable std::mutex mu_;  // guards state transitions + the log
  mutable std::vector<BreakerTransition> log_;
};

}  // namespace sugar::serve
