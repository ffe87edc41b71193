// perfbench: the repo benchmark. One process runs one workload for a fixed
// measured time and prints, as its last stdout line, one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
//
// With --trace 0 the metrics are the end-to-end set (layer probes off),
// with --trace 1 the per-layer set. A line before it records attribution
// (seed, nproc, SUGAR_THREADS, SIMD backend, build type). Any failed
// correctness check prints it on stderr and makes the exit code 1.
//
//   perfbench --workload <table8|encoders|serve_paced|serve_saturate>
//             --seed <n> --seconds <s> --trace <0|1> [--size <full|tiny>]
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/simd.h"
#include "core/threadpool.h"
#include "core/trace.h"
#include "perfbench.h"

using namespace perfbench;

namespace {

bool parse_args(int argc, char** argv, Options& o, std::string& error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') error = "malformed --seed '" + value + "'";
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0))
        error = "malformed --seconds '" + value + "'";
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") error = "--trace takes 0 or 1";
      o.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") error = "--size takes full or tiny";
      o.tiny = value == "tiny";
    } else {
      error = "unknown flag '" + flag + "'";
    }
    if (!error.empty()) return false;
  }
  if (!have_workload) error = "--workload is required";
  return error.empty();
}

void print_attribution(const Options& o) {
  const char* threads = std::getenv("SUGAR_THREADS");
  std::printf(
      "{\"attribution\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, "
      "\"trace\": %d, \"size\": \"%s\", \"nproc\": %ld, \"SUGAR_THREADS\": \"%s\", "
      "\"pool_threads\": %zu, \"simd\": \"%s\", \"build_type\": \"%s\"}}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, o.tiny ? "tiny" : "full", sysconf(_SC_NPROCESSORS_ONLN),
      threads ? threads : "", sugar::core::global_pool().thread_count(),
      sugar::core::simd::backend_name(), PERFBENCH_BUILD_TYPE);
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string error;
  if (!parse_args(argc, argv, opts, error)) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "<table8|encoders|serve_paced|serve_saturate> --seed <n> "
                 "--seconds <s> --trace <0|1> [--size <full|tiny>]\n",
                 error.c_str());
    return 2;
  }
  // End-to-end numbers are measured with the program's own tracing off too.
  sugar::core::trace::set_mode(sugar::core::trace::Mode::kOff);
  print_attribution(opts);

  Result result;
  try {
    if (opts.workload == "table8" || opts.workload == "encoders") {
      result = run_batch(opts);
    } else if (opts.workload == "serve_paced" || opts.workload == "serve_saturate") {
      result = run_serve(opts);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opts.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }

  std::string metrics;
  auto emit = [&](const MetricDef& m) {
    auto it = result.values.find(m.name);
    if (it == result.values.end()) {
      result.check(false, std::string("metric not produced: ") + m.name);
      return;
    }
    result.check(std::isfinite(it->second),
                 std::string("metric not finite: ") + m.name);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name,
                  std::isfinite(it->second) ? it->second : 0.0, m.unit);
    metrics += buf;
  };
  if (opts.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }

  std::string summary;
  for (const auto& [name, value] : result.summary) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", summary.empty() ? "" : ", ",
                  name.c_str(), value);
    summary += buf;
  }
  std::printf("{\"summary\": {%s}}\n", summary.c_str());

  for (const std::string& e : result.errors)
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  const bool correct = result.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return correct ? 0 : 1;
}
