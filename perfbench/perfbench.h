// Shared pieces of the perfbench binary: the command-line options, the
// metric schema (names and units, mirrored by BENCHMARK.json), the result a
// workload hands back, and the layer probes — the benchmark's own timers
// around calls into each sugar layer's public functions.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Smoke size: tiny inputs, one set-up, one pass (perfbench/smoke_test.py).
  bool tiny = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, emitted by every untraced run (--trace 0).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"wall_s", "s"},
    {"cpu_s", "s"},          {"macro_f1", "frac"},
    {"pkts_per_s", "pkt/s"}, {"lat_p50_us", "us"},
    {"lat_p99_us", "us"},    {"served_frac", "frac"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, emitted by every traced run (--trace 1).
inline constexpr MetricDef kPerLayer[] = {
    {"trafficgen.generate_s", "s"},
    {"dataset.clean_s", "s"},
    {"dataset.partition_s", "s"},
    {"replearn.header_features_s", "s"},
    {"replearn.byte_view_s", "s"},
    {"replearn.pretrain_s", "s"},
    {"replearn.pretrain.cpu_util", "cores"},
    {"replearn.fit_s", "s"},
    {"replearn.predict_s", "s"},
    {"ml.rf.fit_s", "s"},
    {"ml.rf.predict_s", "s"},
    {"ml.rf.cpu_util", "cores"},
    {"ml.gbdt.fit_s", "s"},
    {"ml.gbdt.predict_s", "s"},
    {"ml.gbdt.cpu_util", "cores"},
    {"ml.mlp.fit_s", "s"},
    {"ml.rows_fit", "count"},
    {"ml.rows_predicted", "count"},
    {"net.parse_ns_per_pkt", "ns"},
    {"net.malformed_frac", "frac"},
    {"net.keyless_frac", "frac"},
    {"serve.featurize_ns_per_pkt", "ns"},
    {"serve.table.touch_ns", "ns"},
    {"serve.table.create_ns", "ns"},
    {"serve.table.create_frac", "frac"},
    {"serve.classify_ns", "ns"},
    {"serve.classify_per_kpkt", "count"},
    {"serve.flows_created", "count"},
    {"serve.engine.flows_created", "count"},
    {"serve.offer_ns", "ns"},
    {"serve.pump_us_p50", "us"},
    {"serve.pump_us_p99", "us"},
    {"serve.pump_pkts", "pkt"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.queue_depth_p99", "pkt"},
    {"serve.gen_late_us_p99", "us"},
    {"serve.shed_frac", "frac"},
    {"serve.evict_early", "count"},
    {"serve.evict_sampled", "count"},
    {"serve.verdict_yield", "frac"},
    {"trace_overhead_frac", "frac"},
};

/// What a workload run hands back to main(): metric values by name, the
/// operation tally, every correctness check that failed, and the outputs
/// of the run's last pass (macro-F1 and counts) that a traced run must
/// reproduce (perfbench/smoke_test.py compares the two).
struct Result {
  std::map<std::string, double> values;
  std::map<std::string, double> summary;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// User+sys CPU seconds of the whole process (pool workers included).
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set of the process so far, in MiB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Exact nearest-rank percentile of a sample (q in [0,1]); 0 when empty.
template <typename T>
double percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0;
  const auto n = v.size();
  std::size_t k = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  k = std::clamp<std::size_t>(k, 1, n) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Wall and process-CPU time spent inside calls to one layer.
struct LayerTime {
  double wall_s = 0;
  double cpu_s = 0;

  [[nodiscard]] double cpu_util() const { return wall_s > 0 ? cpu_s / wall_s : 0; }
};

/// The benchmark's layer timers. Disabled (the end-to-end runs), time()
/// is a plain call; enabled (the traced run), it adds the call's wall and
/// process-CPU time to the named layer.
class Probes {
 public:
  bool enabled = false;

  template <typename F>
  decltype(auto) time(const char* layer, F&& fn) {
    if (!enabled) return fn();
    Scope scope(acc_[layer]);
    return fn();
  }

  [[nodiscard]] LayerTime get(const std::string& layer) const {
    auto it = acc_.find(layer);
    return it == acc_.end() ? LayerTime{} : it->second;
  }

  void clear() { acc_.clear(); }

 private:
  struct Scope {
    explicit Scope(LayerTime& t) : t_(t), wall0_(Clock::now()), cpu0_(process_cpu_s()) {}
    ~Scope() {
      t_.wall_s += seconds_since(wall0_);
      t_.cpu_s += process_cpu_s() - cpu0_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    LayerTime& t_;
    Clock::time_point wall0_;
    double cpu0_;
  };

  std::map<std::string, LayerTime> acc_;
};

/// Workload entry points (batch.cpp, serve.cpp).
Result run_batch(const Options& opts);
Result run_serve(const Options& opts);

}  // namespace perfbench
