#include "serve/breaker.h"

#include <chrono>
#include <cstdlib>

#include "core/envparse.h"

namespace sugar::serve {

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "?";
}

BreakerConfig BreakerConfig::from_env(BreakerConfig base) {
  if (const char* s = std::getenv("SUGAR_LATENCY_BUDGET_US")) {
    std::uint64_t v = 0;
    if (core::parse_env_number("SUGAR_LATENCY_BUDGET_US", s, v))
      base.latency_budget_us = v;
  }
  return base;
}

CircuitBreakerClassifier::CircuitBreakerClassifier(
    const FlowClassifier& primary, const FlowClassifier& fallback,
    BreakerConfig cfg, core::ChaosInjector* chaos)
    : primary_(primary), fallback_(fallback), cfg_(cfg), chaos_(chaos) {
  cfg_.failure_threshold = std::max<std::uint32_t>(1, cfg_.failure_threshold);
  cfg_.open_cooldown_calls =
      std::max<std::uint32_t>(1, cfg_.open_cooldown_calls);
  cfg_.half_open_successes =
      std::max<std::uint32_t>(1, cfg_.half_open_successes);
}

int CircuitBreakerClassifier::call_primary(const float* features, bool& fault,
                                           bool& injected) const {
  fault = injected = false;
  // Stall first, time from before the stall: a chaos latency spike is a
  // real latency-budget breach, not a separate fault class.
  const auto t0 = std::chrono::steady_clock::now();
  if (chaos_) chaos_->maybe_stall(core::ChaosSite::kClassifierDelay);
  if (chaos_ && chaos_->should_fire(core::ChaosSite::kClassifierFault)) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    fault = injected = true;
    return -1;
  }
  const int verdict = primary_.classify(features);
  primary_calls_.fetch_add(1, std::memory_order_relaxed);
  if (cfg_.latency_budget_us > 0) {
    const auto elapsed_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (static_cast<std::uint64_t>(elapsed_us) > cfg_.latency_budget_us) {
      faults_latency_.fetch_add(1, std::memory_order_relaxed);
      fault = true;
    }
  }
  return verdict;
}

bool CircuitBreakerClassifier::transition(BreakerState from, BreakerState to,
                                          std::uint64_t at_call) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (state() != from) return false;  // another thread moved the edge first
  state_.store(static_cast<std::uint8_t>(to), std::memory_order_release);
  if (log_.size() < kMaxLoggedTransitions)
    log_.push_back(BreakerTransition{from, to, at_call});
  switch (to) {
    case BreakerState::kOpen:
      open_calls_.store(0, std::memory_order_relaxed);
      trips_.fetch_add(1, std::memory_order_relaxed);
      break;
    case BreakerState::kHalfOpen:
      half_open_streak_.store(0, std::memory_order_relaxed);
      probe_in_flight_.store(false, std::memory_order_release);
      break;
    case BreakerState::kClosed:
      consecutive_faults_.store(0, std::memory_order_relaxed);
      recoveries_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return true;
}

int CircuitBreakerClassifier::classify(const float* features) const {
  const std::uint64_t call = calls_.fetch_add(1, std::memory_order_relaxed) + 1;
  const BreakerState st = state();

  if (st == BreakerState::kOpen) {
    const std::uint32_t served =
        open_calls_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (served >= cfg_.open_cooldown_calls)
      transition(BreakerState::kOpen, BreakerState::kHalfOpen, call);
    fallback_calls_.fetch_add(1, std::memory_order_relaxed);
    return fallback_.classify(features);
  }

  if (st == BreakerState::kHalfOpen) {
    bool expected = false;
    if (!probe_in_flight_.compare_exchange_strong(expected, true,
                                                  std::memory_order_acq_rel)) {
      // Someone else holds the probe slot — don't stampede the primary.
      fallback_calls_.fetch_add(1, std::memory_order_relaxed);
      return fallback_.classify(features);
    }
    probes_.fetch_add(1, std::memory_order_relaxed);
    bool fault = false, injected = false;
    const int verdict = call_primary(features, fault, injected);
    if (fault) {
      probe_failures_.fetch_add(1, std::memory_order_relaxed);
      transition(BreakerState::kHalfOpen, BreakerState::kOpen, call);
      probe_in_flight_.store(false, std::memory_order_release);
      if (injected) {
        fallback_calls_.fetch_add(1, std::memory_order_relaxed);
        return fallback_.classify(features);
      }
      return verdict;  // slow but valid
    }
    const std::uint32_t streak =
        half_open_streak_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (streak >= cfg_.half_open_successes)
      transition(BreakerState::kHalfOpen, BreakerState::kClosed, call);
    probe_in_flight_.store(false, std::memory_order_release);
    return verdict;
  }

  // Closed: the primary serves, faults accumulate toward the trip.
  bool fault = false, injected = false;
  const int verdict = call_primary(features, fault, injected);
  if (fault) {
    const std::uint32_t streak =
        consecutive_faults_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (streak >= cfg_.failure_threshold)
      transition(BreakerState::kClosed, BreakerState::kOpen, call);
    if (injected) {
      fallback_calls_.fetch_add(1, std::memory_order_relaxed);
      return fallback_.classify(features);
    }
    return verdict;
  }
  consecutive_faults_.store(0, std::memory_order_relaxed);
  return verdict;
}

BreakerCounters CircuitBreakerClassifier::counters() const {
  BreakerCounters c;
  c.primary_calls = primary_calls_.load(std::memory_order_relaxed);
  c.fallback_calls = fallback_calls_.load(std::memory_order_relaxed);
  c.faults_latency = faults_latency_.load(std::memory_order_relaxed);
  c.faults_injected = faults_injected_.load(std::memory_order_relaxed);
  c.trips = trips_.load(std::memory_order_relaxed);
  c.probes = probes_.load(std::memory_order_relaxed);
  c.probe_failures = probe_failures_.load(std::memory_order_relaxed);
  c.recoveries = recoveries_.load(std::memory_order_relaxed);
  return c;
}

std::vector<BreakerTransition> CircuitBreakerClassifier::transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

core::Json CircuitBreakerClassifier::to_json() const {
  const BreakerCounters c = counters();
  core::Json j = core::Json::object();
  j.set("state", core::Json(to_string(state())));
  core::Json counters = core::Json::object();
  counters.set("primary_calls",
               core::Json(static_cast<std::size_t>(c.primary_calls)));
  counters.set("fallback_calls",
               core::Json(static_cast<std::size_t>(c.fallback_calls)));
  counters.set("faults_latency",
               core::Json(static_cast<std::size_t>(c.faults_latency)));
  counters.set("faults_injected",
               core::Json(static_cast<std::size_t>(c.faults_injected)));
  counters.set("trips", core::Json(static_cast<std::size_t>(c.trips)));
  counters.set("probes", core::Json(static_cast<std::size_t>(c.probes)));
  counters.set("probe_failures",
               core::Json(static_cast<std::size_t>(c.probe_failures)));
  counters.set("recoveries",
               core::Json(static_cast<std::size_t>(c.recoveries)));
  j.set("counters", std::move(counters));
  core::Json log = core::Json::array();
  for (const BreakerTransition& t : transitions()) {
    core::Json e = core::Json::object();
    e.set("from", core::Json(to_string(t.from)));
    e.set("to", core::Json(to_string(t.to)));
    e.set("at_call", core::Json(static_cast<std::size_t>(t.at_call)));
    log.push(std::move(e));
  }
  j.set("transitions", std::move(log));
  return j;
}

}  // namespace sugar::serve
