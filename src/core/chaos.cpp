#include "core/chaos.h"

#include <chrono>
#include <thread>

#include "core/splitmix.h"

namespace sugar::core {
namespace {

double unit_interval(std::uint64_t h) {
  // Top 53 bits -> [0, 1) with full double resolution.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

const char* to_string(ChaosSite site) {
  switch (site) {
    case ChaosSite::kShardStall: return "shard-stall";
    case ChaosSite::kClassifierDelay: return "classifier-delay";
    case ChaosSite::kClassifierFault: return "classifier-fault";
    case ChaosSite::kFlowTableAlloc: return "flow-table-alloc";
    case ChaosSite::kIoWriteFail: return "io-write-fail";
    case ChaosSite::kIoShortWrite: return "io-short-write";
    case ChaosSite::kIoRenameFail: return "io-rename-fail";
    case ChaosSite::kCount: break;
  }
  return "?";
}

ChaosInjector::ChaosInjector(ChaosConfig cfg) : cfg_(cfg) {}

bool ChaosInjector::should_fire(ChaosSite site) {
  const auto s = static_cast<std::size_t>(site);
  if (cfg_.probability[s] <= 0.0) return false;
  const std::uint64_t n = draws_[s].fetch_add(1, std::memory_order_relaxed);
  // Site salt: spread sites far apart in the seed space so adjacent seeds
  // never alias two sites' streams.
  const std::uint64_t h =
      splitmix64(cfg_.seed ^ splitmix64((s + 1) * 0x9E3779B97F4A7C15ull) ^
                 splitmix64(n));
  const bool fire = unit_interval(h) < cfg_.probability[s];
  if (fire) fired_[s].fetch_add(1, std::memory_order_relaxed);
  return fire;
}

bool ChaosInjector::maybe_stall(ChaosSite site, const std::atomic<bool>* cancel) {
  if (!should_fire(site)) return false;
  const std::uint64_t usec = site == ChaosSite::kShardStall
                                 ? cfg_.stall_usec
                                 : cfg_.classifier_delay_usec;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(usec);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cancel && cancel->load(std::memory_order_relaxed)) break;
    std::this_thread::sleep_for(std::chrono::microseconds(
        std::min<std::uint64_t>(1000, std::max<std::uint64_t>(1, usec / 4))));
  }
  return true;
}

Json ChaosInjector::to_json() const {
  Json j = Json::object();
  j.set("seed", Json(static_cast<std::size_t>(cfg_.seed)));
  Json sites = Json::array();
  for (std::size_t s = 0; s < kChaosSiteCount; ++s) {
    Json site = Json::object();
    site.set("site", Json(to_string(static_cast<ChaosSite>(s))));
    site.set("probability", Json(cfg_.probability[s]));
    site.set("draws", Json(static_cast<std::size_t>(
                          draws_[s].load(std::memory_order_relaxed))));
    site.set("fired", Json(static_cast<std::size_t>(
                          fired_[s].load(std::memory_order_relaxed))));
    sites.push(std::move(site));
  }
  j.set("sites", std::move(sites));
  return j;
}

bool ChaosIo::write_file(const std::string& path, std::string_view content,
                         std::string* error) {
  if (chaos_.should_fire(ChaosSite::kIoWriteFail)) {
    if (error) *error = "chaos: disk full writing " + path;
    return false;
  }
  if (chaos_.should_fire(ChaosSite::kIoShortWrite)) {
    // Persist a prefix, then fail — the torn-temp-file case the atomic
    // temp-then-rename discipline must absorb.
    base_.write_file(path, content.substr(0, content.size() / 2), error);
    if (error) *error = "chaos: short write to " + path;
    return false;
  }
  return base_.write_file(path, content, error);
}

bool ChaosIo::rename_file(const std::string& from, const std::string& to,
                          std::string* error) {
  if (chaos_.should_fire(ChaosSite::kIoRenameFail)) {
    if (error) *error = "chaos: rename " + from + " -> " + to + " failed";
    return false;
  }
  return base_.rename_file(from, to, error);
}

void ChaosIo::remove_file(const std::string& path) { base_.remove_file(path); }

bool ChaosIo::read_file(const std::string& path, std::string& out,
                        std::string* error) {
  return base_.read_file(path, out, error);
}

bool ChaosIo::append_file(const std::string& path, std::string_view content,
                          std::string* error) {
  if (chaos_.should_fire(ChaosSite::kIoWriteFail)) {
    if (error) *error = "chaos: disk full appending " + path;
    return false;
  }
  if (chaos_.should_fire(ChaosSite::kIoShortWrite)) {
    // Persist a prefix, then fail — a streaming writer's temp file is torn
    // mid-append; the commit rename must never happen.
    base_.append_file(path, content.substr(0, content.size() / 2), error);
    if (error) *error = "chaos: short append to " + path;
    return false;
  }
  return base_.append_file(path, content, error);
}

}  // namespace sugar::core
