// google-benchmark microbenchmarks for the substrate: parser, serializer,
// checksum, flow assembly, split, featurization, pcap I/O throughput, and
// the parallel compute kernels (legacy vs blocked GEMM, forest fit, k-NN).
//
// Invoked as `bench_micro_substrate --substrate-compare <out.json>` it
// instead runs the deterministic sequential-vs-parallel comparison used by
// the perf_smoke ctest label: every kernel at SUGAR_THREADS=1 and =4 with
// bit-identical-output verification, speedups recorded in the artifact
// (speedup is reported, not gated — determinism is the hard requirement).
//
// `--simd-compare <out.json>` runs the scalar-reference vs core::simd
// comparison instead: each vector kernel must reproduce its no-vectorize
// scalar spec to the bit, with GFLOP/s and GB/s recorded (schema 3).
//
// `--trace-compare <out.json>` gates the observability substrate's
// zero-interference contract: every kernel runs once with SUGAR_TRACE off
// and once at the maximal `spans` mode, and the bit-exact output digests
// must match — tracing observes computation, it never perturbs it.
//
// `--ooc-compare <out.json>` gates the out-of-core substrate: a synthetic
// code store larger than the page-cache budget is fit fully resident
// (ResidentCodeSource) and paged (PagedCodeSource in a child process with
// SUGAR_PAGE_CACHE_MB pinned small), at SUGAR_THREADS=1/2/7 each. Hard
// gates: all six model digests bit-identical, and every paged child's
// peak RSS stays below the dataset payload size — proof the fit streamed
// instead of materializing. `--ooc-fit <store>` is the internal child
// mode (opens the store, fits, prints one JSON line of evidence).
#include <benchmark/benchmark.h>

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <random>
#include <sstream>

#include "core/artifact.h"
#include "core/pager.h"
#include "dataset/store.h"
#include "core/simd.h"
#include "core/threadpool.h"
#include "core/trace.h"
#include "dataset/split.h"
#include "dataset/task.h"
#include "ml/forest.h"
#include "ml/knn.h"
#include "ml/matrix.h"
#include "net/checksum.h"
#include "net/flow.h"
#include "net/mutate.h"
#include "net/parser.h"
#include "net/pcap.h"
#include "replearn/featurize.h"
#include "trafficgen/datasets.h"

using namespace sugar;

namespace {

std::vector<net::Packet> sample_trace(std::size_t flows = 60) {
  trafficgen::GenOptions opts;
  opts.seed = 42;
  opts.flows_per_class = flows / 16 + 1;
  return trafficgen::generate_iscx_vpn(opts).packets;
}

const std::vector<net::Packet>& cached_trace() {
  static const std::vector<net::Packet> trace = sample_trace();
  return trace;
}

void BM_ParsePacket(benchmark::State& state) {
  const auto& trace = cached_trace();
  std::size_t i = 0, bytes = 0;
  for (auto _ : state) {
    auto outcome = net::parse_packet(trace[i % trace.size()]);
    benchmark::DoNotOptimize(outcome);
    bytes += trace[i % trace.size()].data.size();
    ++i;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_ParsePacket);

void BM_Checksum1500(benchmark::State& state) {
  std::vector<std::uint8_t> buf(1500, 0xA5);
  std::size_t bytes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::checksum(buf));
    bytes += buf.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_Checksum1500);

void BM_GenerateFlow(benchmark::State& state) {
  auto profiles = trafficgen::iscx_vpn_profiles();
  trafficgen::Rng rng(7);
  std::size_t packets = 0;
  for (auto _ : state) {
    auto pkts = trafficgen::generate_flow(profiles[2], false, rng, 0);
    packets += pkts.size();
    benchmark::DoNotOptimize(pkts);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
}
BENCHMARK(BM_GenerateFlow);

void BM_FlowAssembly(benchmark::State& state) {
  const auto& trace = cached_trace();
  for (auto _ : state) {
    auto table = net::assemble_flows(trace);
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FlowAssembly);

void BM_RandomizeSeqAck(benchmark::State& state) {
  auto trace = cached_trace();
  std::mt19937_64 rng(3);
  std::size_t i = 0;
  for (auto _ : state) {
    net::randomize_seq_ack(trace[i % trace.size()], rng);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RandomizeSeqAck);

void BM_PcapRoundTrip(benchmark::State& state) {
  const auto& trace = cached_trace();
  for (auto _ : state) {
    std::stringstream ss;
    {
      net::PcapWriter writer(ss);
      writer.write_all(trace);
    }
    net::PcapReader reader(ss);
    auto back = reader.read_all();
    benchmark::DoNotOptimize(back);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_PcapRoundTrip);

void BM_HeaderFeaturize(benchmark::State& state) {
  trafficgen::GenOptions opts;
  opts.seed = 9;
  opts.flows_per_class = 2;
  auto trace = trafficgen::generate_iscx_vpn(opts);
  auto ds = dataset::make_task_dataset(trace, dataset::TaskId::VpnApp);
  std::vector<std::size_t> idx(ds.size());
  std::iota(idx.begin(), idx.end(), 0);
  for (auto _ : state) {
    auto x = replearn::header_feature_matrix(ds, idx, {});
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ds.size()));
}
BENCHMARK(BM_HeaderFeaturize);

// ---- Parallel compute kernels -------------------------------------------

ml::Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  ml::Matrix m(rows, cols);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (auto& v : m.data()) v = dist(rng);
  return m;
}

/// The pre-substrate matmul, kept verbatim for comparison: single-threaded
/// ikj with the `aik == 0.0f` branch-skip that the blocked kernel dropped
/// (on dense floats the branch is a mispredict tax, not an optimization).
ml::Matrix legacy_branchy_matmul(const ml::Matrix& a, const ml::Matrix& b) {
  ml::Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* ai = a.row(i);
    float* ci = c.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      float aik = ai[k];
      if (aik == 0.0f) continue;
      const float* bk = b.row(k);
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += aik * bk[j];
    }
  }
  return c;
}

void BM_MatmulLegacyBranchy(benchmark::State& state) {
  auto a = random_matrix(160, 128, 21);
  auto b = random_matrix(128, 96, 22);
  for (auto _ : state) {
    auto c = legacy_branchy_matmul(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.rows() * a.cols() * b.cols()));
}
BENCHMARK(BM_MatmulLegacyBranchy);

void BM_MatmulBlockedSeq(benchmark::State& state) {
  core::set_global_threads(1);
  auto a = random_matrix(160, 128, 21);
  auto b = random_matrix(128, 96, 22);
  for (auto _ : state) {
    auto c = ml::matmul(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.rows() * a.cols() * b.cols()));
  core::set_global_threads(0);
}
BENCHMARK(BM_MatmulBlockedSeq);

void BM_MatmulBlockedPar(benchmark::State& state) {
  core::set_global_threads(0);  // SUGAR_THREADS / hardware_concurrency
  auto a = random_matrix(160, 128, 21);
  auto b = random_matrix(128, 96, 22);
  for (auto _ : state) {
    auto c = ml::matmul(a, b);
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(a.rows() * a.cols() * b.cols()));
}
BENCHMARK(BM_MatmulBlockedPar);

void BM_ForestFitSeq(benchmark::State& state) {
  core::set_global_threads(1);
  auto x = random_matrix(300, 16, 31);
  std::vector<int> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 5);
  for (auto _ : state) {
    ml::ForestConfig fc;
    fc.num_trees = 16;
    ml::RandomForest rf(fc);
    rf.fit(x, y, 5);
    benchmark::DoNotOptimize(rf);
  }
  core::set_global_threads(0);
}
BENCHMARK(BM_ForestFitSeq);

void BM_ForestFitPar(benchmark::State& state) {
  core::set_global_threads(0);
  auto x = random_matrix(300, 16, 31);
  std::vector<int> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 5);
  for (auto _ : state) {
    ml::ForestConfig fc;
    fc.num_trees = 16;
    ml::RandomForest rf(fc);
    rf.fit(x, y, 5);
    benchmark::DoNotOptimize(rf);
  }
}
BENCHMARK(BM_ForestFitPar);

void BM_KnnPurity(benchmark::State& state) {
  auto e = random_matrix(400, 24, 41);
  std::vector<int> labels(e.rows());
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>(i % 6);
  for (auto _ : state) {
    auto p = ml::knn_purity(e, labels, 5);
    benchmark::DoNotOptimize(p);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(e.rows() * e.rows()));
}
BENCHMARK(BM_KnnPurity);

void BM_PerFlowSplit(benchmark::State& state) {
  trafficgen::GenOptions opts;
  opts.seed = 9;
  opts.flows_per_class = 4;
  auto trace = trafficgen::generate_iscx_vpn(opts);
  auto ds = dataset::make_task_dataset(trace, dataset::TaskId::VpnApp);
  for (auto _ : state) {
    dataset::SplitOptions so;
    so.policy = dataset::SplitPolicy::PerFlow;
    auto split = dataset::split_dataset(ds, so);
    benchmark::DoNotOptimize(split);
  }
}
BENCHMARK(BM_PerFlowSplit);

// ---- --substrate-compare: deterministic seq-vs-par verification ---------

/// Bit-exact digest of a float buffer (the raw bytes, so -0.0f vs +0.0f or
/// any last-ulp drift is caught). Templated over the allocator so it takes
/// both std::vector<float> and ml::Matrix's aligned FloatBuffer.
template <typename Alloc>
std::string digest_floats(const std::vector<float, Alloc>& v) {
  return core::hex64(core::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(v.data()), v.size() * sizeof(float))));
}

std::string digest_ints(const std::vector<int>& v) {
  return core::hex64(core::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(v.data()), v.size() * sizeof(int))));
}

std::string digest_doubles(const std::vector<double>& v) {
  return core::hex64(core::fnv1a64(std::string_view(
      reinterpret_cast<const char*>(v.data()), v.size() * sizeof(double))));
}

struct CompareCase {
  std::string kernel;
  // Runs the kernel once and returns a bit-exact digest of its output.
  std::function<std::string()> run;
};

/// Wall-clock of the fastest of `reps` runs (min filters scheduler noise).
template <typename Fn>
double best_seconds(int reps, const Fn& fn) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                   .count();
    if (s < best) best = s;
  }
  return best;
}

int run_substrate_compare(const std::string& path) {
  constexpr std::size_t kSeqThreads = 1, kParThreads = 4;
  constexpr int kReps = 3;

  // Shared inputs, deterministic across both thread counts.
  auto a = random_matrix(224, 192, 101);
  auto b = random_matrix(192, 160, 102);
  auto at = random_matrix(192, 224, 103);  // for matmul_tn (same row count as b')
  auto bt = random_matrix(192, 160, 104);
  auto x = random_matrix(420, 20, 105);
  std::vector<int> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 5);
  auto emb = random_matrix(360, 24, 106);
  std::vector<int> labels(emb.rows());
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<int>(i % 6);

  std::vector<CompareCase> cases;
  cases.push_back({"matmul", [&] { return digest_floats(ml::matmul(a, b).data()); }});
  cases.push_back(
      {"matmul_tn", [&] { return digest_floats(ml::matmul_tn(at, bt).data()); }});
  cases.push_back(
      {"matmul_nt", [&] { return digest_floats(ml::matmul_nt(a, a).data()); }});
  cases.push_back({"forest_fit", [&] {
                     ml::ForestConfig fc;
                     fc.num_trees = 24;
                     ml::RandomForest rf(fc);
                     rf.fit(x, y, 5);
                     auto pred = rf.predict(x);
                     auto imp = rf.feature_importance();
                     return digest_ints(pred) + "/" + digest_doubles(imp);
                   }});
  cases.push_back({"knn_purity", [&] {
                     auto p = ml::knn_purity(emb, labels, 5);
                     auto h = p.histogram;
                     h.push_back(p.mean_purity);
                     return digest_doubles(h);
                   }});

  core::Json doc = core::Json::object();
  doc.set("schema_version", core::Json(1));
  doc.set("bench", core::Json("micro_substrate_compare"));
  doc.set("threads_seq", core::Json(kSeqThreads));
  doc.set("threads_par", core::Json(kParThreads));
  doc.set("hardware_concurrency",
          core::Json(static_cast<std::size_t>(std::thread::hardware_concurrency())));
  core::Json arr = core::Json::array();

  bool all_identical = true;
  for (auto& c : cases) {
    core::set_global_threads(kSeqThreads);
    std::string d_seq = c.run();  // warm (and digest) before timing
    double t_seq = best_seconds(kReps, c.run);
    core::set_global_threads(kParThreads);
    std::string d_par = c.run();
    double t_par = best_seconds(kReps, c.run);
    bool identical = d_seq == d_par;
    all_identical = all_identical && identical;

    core::Json row = core::Json::object();
    row.set("kernel", core::Json(c.kernel));
    row.set("seq_seconds", core::Json(t_seq));
    row.set("par_seconds", core::Json(t_par));
    row.set("speedup", core::Json(t_par > 0 ? t_seq / t_par : 0.0));
    row.set("digest_seq", core::Json(d_seq));
    row.set("digest_par", core::Json(d_par));
    row.set("identical", core::Json(identical));
    arr.push(row);
    std::printf("%-12s seq %.4fs  par(%zu) %.4fs  speedup %.2fx  %s\n",
                c.kernel.c_str(), t_seq, kParThreads, t_par,
                t_par > 0 ? t_seq / t_par : 0.0,
                identical ? "bit-identical" : "OUTPUT MISMATCH");
  }
  core::set_global_threads(0);  // restore SUGAR_THREADS / hardware default

  doc.set("cases", arr);
  doc.set("all_identical", core::Json(all_identical));
  std::string err;
  if (!core::atomic_write_file(path, doc.dump(2) + "\n", &err)) {
    std::fprintf(stderr, "substrate-compare: artifact write failed: %s\n",
                 err.c_str());
    return 1;
  }
  std::printf("Artifact: %s\n", path.c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "substrate-compare: parallel output differs from sequential — "
                 "determinism contract violated\n");
    return 1;
  }
  return 0;
}

// ---- --simd-compare: scalar-reference vs core::simd verification --------
//
// The scalar references below are the determinism SPEC written as plain
// scalar code: k-ascending GEMM accumulation and the strided-8 blocked
// reduction from core/simd.h. The vectorized kernels must reproduce them
// to the bit — that identity is the gate. Throughput (GFLOP/s and GB/s)
// is reported, not gated: the required >= 2x GEMM speedup only appears on
// real vector hardware, not under SUGAR_SIMD_FORCE_SCALAR.
//
// GCC auto-vectorizes plain loops at -O2, which would turn the "scalar"
// baseline into SIMD and hide the speedup — so the references are compiled
// with the tree-vectorizer off where the attribute exists.
#if defined(__GNUC__) && !defined(__clang__)
#define SUGAR_SCALAR_REF __attribute__((optimize("no-tree-vectorize")))
#else
#define SUGAR_SCALAR_REF
#endif

SUGAR_SCALAR_REF void scalar_gemm(const ml::Matrix& a, const ml::Matrix& b,
                                  ml::Matrix& c) {
  c.reshape(a.rows(), b.cols());
  c.fill(0.0f);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const float* ai = a.row(i);
    float* ci = c.row(i);
    for (std::size_t k = 0; k < a.cols(); ++k) {
      float aik = ai[k];
      const float* bk = b.row(k);
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += aik * bk[j];
    }
  }
}

SUGAR_SCALAR_REF void scalar_axpy(float* dst, const float* src, float a,
                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += a * src[i];
}

SUGAR_SCALAR_REF void scalar_relu(ml::Matrix& m, ml::Matrix& mask) {
  mask.reshape(m.rows(), m.cols());
  float* v = m.data().data();
  float* mk = mask.data().data();
  for (std::size_t i = 0; i < m.size(); ++i) {
    mk[i] = v[i] > 0.0f ? 1.0f : 0.0f;
    v[i] = v[i] > 0.0f ? v[i] : 0.0f;
  }
}

SUGAR_SCALAR_REF float scalar_strided_max(const float* a, std::size_t n) {
  if (n < 8) {
    float m = a[0];
    for (std::size_t i = 1; i < n; ++i) m = a[i] > m ? a[i] : m;
    return m;
  }
  float lanes[8];
  for (std::size_t l = 0; l < 8; ++l) lanes[l] = a[l];
  std::size_t i = 8;
  for (; i + 8 <= n; i += 8)
    for (std::size_t l = 0; l < 8; ++l)
      lanes[l] = a[i + l] > lanes[l] ? a[i + l] : lanes[l];
  for (std::size_t t = i; t < n; ++t)
    lanes[t - i] = a[t] > lanes[t - i] ? a[t] : lanes[t - i];
  return core::simd::reduce8_max(lanes);
}

SUGAR_SCALAR_REF float scalar_strided_sum(const float* a, std::size_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (std::size_t l = 0; l < 8; ++l) lanes[l] += a[i + l];
  for (std::size_t t = i; t < n; ++t) lanes[t - i] += a[t];
  return core::simd::reduce8(lanes);
}

SUGAR_SCALAR_REF void scalar_softmax(ml::Matrix& m) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    float* r = m.row(i);
    const std::size_t n = m.cols();
    float mx = scalar_strided_max(r, n);
    for (std::size_t j = 0; j < n; ++j) r[j] = std::exp(r[j] - mx);
    float inv = 1.0f / scalar_strided_sum(r, n);
    for (std::size_t j = 0; j < n; ++j) r[j] *= inv;
  }
}

SUGAR_SCALAR_REF float scalar_sqdist(const float* a, const float* b,
                                     std::size_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (std::size_t l = 0; l < 8; ++l) {
      float d = a[i + l] - b[i + l];
      lanes[l] += d * d;
    }
  for (std::size_t t = i; t < n; ++t) {
    float d = a[t] - b[t];
    lanes[t - i] += d * d;
  }
  return core::simd::reduce8(lanes);
}

struct SimdCase {
  std::string kernel;
  double flops;  // arithmetic work of one run (0 when not meaningful)
  double bytes;  // memory traffic of one run
  std::function<std::string()> run_scalar;
  std::function<std::string()> run_simd;
};

int run_simd_compare(const std::string& path) {
  constexpr int kReps = 5;
  core::set_global_threads(1);  // kernel-only comparison, no thread effects

  auto a = random_matrix(256, 256, 201);
  auto b = random_matrix(256, 256, 202);
  const std::size_t kElems = 1u << 20;
  auto u = random_matrix(1, kElems, 203);
  auto v = random_matrix(1, kElems, 204);
  auto soft = random_matrix(512, 203, 205);  // odd cols: exercises the tail
  ml::Matrix scratch, scratch2, mask;

  auto digest_one = [](float x) {
    return core::hex64(core::fnv1a64(
        std::string_view(reinterpret_cast<const char*>(&x), sizeof x)));
  };

  std::vector<SimdCase> cases;
  const double gemm_flops = 2.0 * 256 * 256 * 256;
  const double gemm_bytes = 4.0 * (256.0 * 256 * 3);
  cases.push_back({"gemm", gemm_flops, gemm_bytes,
                   [&] {
                     scalar_gemm(a, b, scratch);
                     return digest_floats(scratch.data());
                   },
                   [&] {
                     ml::matmul_into(a, b, scratch2);
                     return digest_floats(scratch2.data());
                   }});
  cases.push_back({"axpy", 2.0 * kElems, 4.0 * kElems * 3,
                   [&] {
                     scratch.copy_from(u);
                     scalar_axpy(scratch.data().data(), v.data().data(), 1.25f,
                                 kElems);
                     return digest_floats(scratch.data());
                   },
                   [&] {
                     scratch2.copy_from(u);
                     core::simd::axpy(scratch2.data().data(), v.data().data(),
                                      1.25f, kElems);
                     return digest_floats(scratch2.data());
                   }});
  cases.push_back({"relu", 0.0, 4.0 * kElems * 3,
                   [&] {
                     scratch.copy_from(u);
                     scalar_relu(scratch, mask);
                     return digest_floats(scratch.data()) +
                            digest_floats(mask.data());
                   },
                   [&] {
                     scratch2.copy_from(u);
                     ml::relu_inplace_into(scratch2, mask);
                     return digest_floats(scratch2.data()) +
                            digest_floats(mask.data());
                   }});
  const double soft_elems = 512.0 * 203;
  cases.push_back({"softmax_rows", 4.0 * soft_elems, 4.0 * soft_elems * 4,
                   [&] {
                     scratch.copy_from(soft);
                     scalar_softmax(scratch);
                     return digest_floats(scratch.data());
                   },
                   [&] {
                     scratch2.copy_from(soft);
                     ml::softmax_rows(scratch2);
                     return digest_floats(scratch2.data());
                   }});
  cases.push_back({"squared_distance", 3.0 * kElems, 4.0 * kElems * 2,
                   [&] {
                     return digest_one(scalar_sqdist(u.data().data(),
                                                     v.data().data(), kElems));
                   },
                   [&] {
                     return digest_one(ml::squared_distance(
                         u.data().data(), v.data().data(), kElems));
                   }});

  core::Json doc = core::Json::object();
  doc.set("schema_version", core::Json(3));
  doc.set("bench", core::Json("micro_substrate_simd"));
  doc.set("simd_backend", core::Json(core::simd::backend_name()));
  doc.set("threads", core::Json(std::size_t{1}));
  core::Json arr = core::Json::array();

  bool all_identical = true;
  for (auto& c : cases) {
    std::string d_scalar = c.run_scalar();  // warm before timing
    double t_scalar = best_seconds(kReps, c.run_scalar);
    std::string d_simd = c.run_simd();
    double t_simd = best_seconds(kReps, c.run_simd);
    bool identical = d_scalar == d_simd;
    all_identical = all_identical && identical;
    double gflops = (c.flops > 0 && t_simd > 0) ? c.flops / t_simd / 1e9 : 0.0;
    double bps = t_simd > 0 ? c.bytes / t_simd : 0.0;

    core::Json row = core::Json::object();
    row.set("kernel", core::Json(c.kernel));
    row.set("scalar_seconds", core::Json(t_scalar));
    row.set("simd_seconds", core::Json(t_simd));
    row.set("speedup", core::Json(t_simd > 0 ? t_scalar / t_simd : 0.0));
    row.set("flops", core::Json(c.flops));
    row.set("bytes", core::Json(c.bytes));
    row.set("gflops", core::Json(gflops));
    row.set("bytes_per_s", core::Json(bps));
    row.set("digest_scalar", core::Json(d_scalar));
    row.set("digest_simd", core::Json(d_simd));
    row.set("identical", core::Json(identical));
    arr.push(row);
    std::printf(
        "%-18s scalar %.5fs  simd(%s) %.5fs  speedup %.2fx  %.2f GFLOP/s  "
        "%.2f GB/s  %s\n",
        c.kernel.c_str(), t_scalar, core::simd::backend_name(), t_simd,
        t_simd > 0 ? t_scalar / t_simd : 0.0, gflops, bps / 1e9,
        identical ? "bit-identical" : "OUTPUT MISMATCH");
  }
  core::set_global_threads(0);

  doc.set("cases", arr);
  doc.set("all_identical", core::Json(all_identical));
  std::string err;
  if (!core::atomic_write_file(path, doc.dump(2) + "\n", &err)) {
    std::fprintf(stderr, "simd-compare: artifact write failed: %s\n",
                 err.c_str());
    return 1;
  }
  std::printf("Artifact: %s\n", path.c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "simd-compare: vectorized output differs from the scalar "
                 "reference — determinism contract violated\n");
    return 1;
  }
  return 0;
}

// ---- --trace-compare: trace-off vs trace-spans identity -----------------
//
// The observability substrate's hard contract: SUGAR_TRACE changes what is
// *recorded*, never what is *computed*. Each kernel runs with tracing off
// and again at the maximal `spans` mode (through the same instrumented code
// paths — ml.gemm_flops counters, ml.forest.fit / ml.knn.purity spans, the
// pcap.* ingest counters) and the raw output bytes must digest identically.
// The off/spans wall-clock ratio is reported as `speedup` so overhead is
// visible in the BENCH trajectory, but only identity is gated.

std::string digest_packets(const std::vector<net::Packet>& pkts) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis, chained
  for (const auto& p : pkts) {
    h ^= core::fnv1a64(std::string_view(
        reinterpret_cast<const char*>(p.data.data()), p.data.size()));
    h *= 1099511628211ull;
  }
  return core::hex64(h);
}

int run_trace_compare(const std::string& path) {
  constexpr int kReps = 3;
  // Fixed pool width: the comparison must isolate the trace mode, so both
  // runs share the same deterministic block structure.
  core::set_global_threads(2);

  auto a = random_matrix(224, 192, 301);
  auto b = random_matrix(192, 160, 302);
  auto x = random_matrix(420, 20, 303);
  std::vector<int> y(x.rows());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = static_cast<int>(i % 5);
  auto emb = random_matrix(360, 24, 304);
  std::vector<int> labels(emb.rows());
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<int>(i % 6);
  const auto& trace_pkts = cached_trace();

  std::vector<CompareCase> cases;
  cases.push_back({"matmul", [&] { return digest_floats(ml::matmul(a, b).data()); }});
  cases.push_back({"forest_fit", [&] {
                     ml::ForestConfig fc;
                     fc.num_trees = 24;
                     ml::RandomForest rf(fc);
                     rf.fit(x, y, 5);
                     auto pred = rf.predict(x);
                     auto imp = rf.feature_importance();
                     return digest_ints(pred) + "/" + digest_doubles(imp);
                   }});
  cases.push_back({"knn_purity", [&] {
                     auto p = ml::knn_purity(emb, labels, 5);
                     auto h = p.histogram;
                     h.push_back(p.mean_purity);
                     return digest_doubles(h);
                   }});
  cases.push_back({"pcap_roundtrip", [&] {
                     std::stringstream ss;
                     {
                       net::PcapWriter writer(ss);
                       writer.write_all(trace_pkts);
                     }
                     net::PcapReader reader(ss);
                     return digest_packets(reader.read_all());
                   }});

  core::Json doc = core::Json::object();
  doc.set("schema_version", core::Json(1));
  doc.set("bench", core::Json("micro_substrate_trace"));
  doc.set("threads", core::Json(std::size_t{2}));
  core::Json arr = core::Json::array();

  bool all_identical = true;
  for (auto& c : cases) {
    core::trace::set_mode(core::trace::Mode::kOff);
    std::string d_off = c.run();  // warm (and digest) before timing
    double t_off = best_seconds(kReps, c.run);
    core::trace::reset();
    core::trace::set_mode(core::trace::Mode::kSpans);
    std::string d_spans = c.run();
    double t_spans = best_seconds(kReps, c.run);
    core::trace::set_mode(core::trace::Mode::kOff);
    bool identical = d_off == d_spans;
    all_identical = all_identical && identical;

    core::Json row = core::Json::object();
    row.set("kernel", core::Json(c.kernel));
    row.set("off_seconds", core::Json(t_off));
    row.set("spans_seconds", core::Json(t_spans));
    row.set("speedup", core::Json(t_off > 0 ? t_spans / t_off : 0.0));
    row.set("digest_off", core::Json(d_off));
    row.set("digest_spans", core::Json(d_spans));
    row.set("identical", core::Json(identical));
    arr.push(row);
    std::printf("%-15s off %.4fs  spans %.4fs  overhead %.2fx  %s\n",
                c.kernel.c_str(), t_off, t_spans,
                t_off > 0 ? t_spans / t_off : 0.0,
                identical ? "bit-identical" : "OUTPUT MISMATCH");
  }
  core::trace::reset();
  core::set_global_threads(0);  // restore SUGAR_THREADS / hardware default

  doc.set("cases", arr);
  doc.set("all_identical", core::Json(all_identical));
  std::string err;
  if (!core::atomic_write_file(path, doc.dump(2) + "\n", &err)) {
    std::fprintf(stderr, "trace-compare: artifact write failed: %s\n",
                 err.c_str());
    return 1;
  }
  std::printf("Artifact: %s\n", path.c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "trace-compare: traced output differs from untraced — "
                 "observability perturbed the computation\n");
    return 1;
  }
  return 0;
}

// ---- --ooc-compare: resident vs paged fit identity + RSS gate ----------

// Dataset geometry: 3M rows x 32 code columns = 96 MB of codes on disk,
// fit by the paged children under a 4 MB cache budget (24x smaller). The
// child's fixed overhead (binary, labels, row index, partition scratch)
// sits well under the payload size, so "peak RSS < dataset bytes" is a
// real streaming gate, not slack.
constexpr std::size_t kOocRows = 3000000;
constexpr std::size_t kOocCols = 32;
constexpr int kOocBins = 64;
constexpr int kOocClasses = 6;
constexpr std::size_t kOocGroupRows = 65536;
constexpr std::size_t kOocBudgetMb = 4;
constexpr std::size_t kOocProbeRows = 4096;

std::uint64_t ooc_mix(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

int ooc_label(std::uint64_t r) {
  return static_cast<int>(ooc_mix(r * 2 + 1) % kOocClasses);
}

/// Deterministic synthetic feature value: a hash-noise base plus a
/// class-dependent shift so the forest has real splits to find (all-leaf
/// trees would make the digest gate vacuous).
float ooc_value(std::uint64_t r, std::size_t c) {
  const int y = ooc_label(r);
  const std::uint64_t h = ooc_mix((r << 8) ^ (c * 0x9E37u + 3));
  const float base =
      static_cast<float>(h & 0xFFFFFu) / static_cast<float>(1u << 20);
  return base + 0.35f * static_cast<float>(
                            (static_cast<std::size_t>(y) * 7 + c) % 5);
}

ml::ForestConfig ooc_forest_cfg() {
  ml::ForestConfig cfg;
  cfg.num_trees = 2;
  cfg.seed = 29;
  cfg.tree.max_depth = 8;
  cfg.tree.features_per_split = 6;
  cfg.tree.histogram_bins = kOocBins;
  return cfg;
}

/// Model fingerprint: predictions on a fixed probe block (rows beyond the
/// training range) plus the bit pattern of the importance vector.
std::string ooc_digest(const ml::RandomForest& forest) {
  ml::Matrix probe(kOocProbeRows, kOocCols);
  for (std::size_t r = 0; r < kOocProbeRows; ++r)
    for (std::size_t c = 0; c < kOocCols; ++c)
      probe(r, c) = ooc_value(kOocRows + r, c);
  return digest_ints(forest.predict(probe)) + "/" +
         digest_doubles(forest.feature_importance());
}

/// Child mode: open the code store, fit paged, print one JSON line of
/// evidence (digest, seconds, peak RSS, cache counters) on stdout.
int run_ooc_fit_child(const std::string& store_path) {
  dataset::StoreError serr;
  auto reader = dataset::StoreReader::open(store_path, &serr);
  if (!reader) {
    std::fprintf(stderr, "ooc-fit: open failed: %s\n", serr.message.c_str());
    return 2;
  }
  const int ycol = reader->column("y");
  if (ycol < 0) {
    std::fprintf(stderr, "ooc-fit: store has no \"y\" column\n");
    return 2;
  }
  std::vector<int> y;
  y.reserve(reader->rows());
  dataset::ColumnCursor ycur(*reader, static_cast<std::size_t>(ycol));
  dataset::ColumnBlock blk;
  while (ycur.next(blk, &serr))
    for (std::uint32_t i = 0; i < blk.nrows; ++i)
      y.push_back(blk.as<std::int32_t>()[i]);
  if (serr) {
    std::fprintf(stderr, "ooc-fit: label scan failed: %s\n",
                 serr.message.c_str());
    return 2;
  }
  std::vector<std::size_t> code_cols(kOocCols);
  std::iota(code_cols.begin(), code_cols.end(), std::size_t{0});
  dataset::PagedCodeSource src(*reader, code_cols);

  ml::RandomForest forest(ooc_forest_cfg());
  const auto t0 = std::chrono::steady_clock::now();
  forest.fit_binned(src, y, kOocClasses);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto st = core::PageCache::global().stats();
  core::Json out = core::Json::object();
  out.set("digest", core::Json(ooc_digest(forest)));
  out.set("seconds", core::Json(seconds));
  out.set("peak_rss_bytes", core::Json(core::peak_rss_bytes()));
  out.set("payload_bytes", core::Json(reader->payload_bytes()));
  out.set("budget_bytes", core::Json(core::PageCache::global().budget_bytes()));
  out.set("hits", core::Json(st.hits));
  out.set("misses", core::Json(st.misses));
  out.set("hit_rate", core::Json(st.hit_rate()));
  out.set("evictions", core::Json(st.evictions));
  out.set("prefetch_issued", core::Json(st.prefetch_issued));
  out.set("prefetch_loaded", core::Json(st.prefetch_loaded));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

std::string shell_quote(const std::string& s) {
  std::string out = "'";
  for (char ch : s) {
    if (ch == '\'')
      out += "'\\''";
    else
      out += ch;
  }
  out += "'";
  return out;
}

/// Resolves this binary's path for re-exec as the --ooc-fit child.
std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) return std::string(buf, static_cast<std::size_t>(n));
  return argv0 ? argv0 : "";
}

int run_ooc_compare(const std::string& path, const char* argv0) {
  constexpr int kWidths[] = {1, 2, 7};
  const std::string store_path = path + ".store.sugc";

  // Pass 1: quantization cuts, exactly as BinnedMatrix would derive them.
  std::printf("ooc-compare: sketching %zu rows x %zu cols...\n", kOocRows,
              kOocCols);
  std::vector<std::vector<float>> cuts(kOocCols);
  {
    std::vector<ml::ColumnSketch> sketches;
    sketches.reserve(kOocCols);
    for (std::size_t c = 0; c < kOocCols; ++c)
      sketches.emplace_back(kOocBins);
    for (std::uint64_t r = 0; r < kOocRows; ++r)
      for (std::size_t c = 0; c < kOocCols; ++c)
        sketches[c].add(ooc_value(r, c));
    for (std::size_t c = 0; c < kOocCols; ++c)
      cuts[c] = sketches[c].finalize();
  }

  // Pass 2: write the code store and keep a resident copy of the codes +
  // labels for the in-memory comparator arm.
  std::vector<dataset::ColumnSpec> schema;
  for (std::size_t c = 0; c < kOocCols; ++c)
    schema.push_back({"f" + std::to_string(c), dataset::ColumnType::U8,
                      cuts[c]});
  schema.push_back({"y", dataset::ColumnType::I32, {}});
  dataset::StoreWriter::Options wopts;
  wopts.group_rows = kOocGroupRows;
  wopts.bins = kOocBins;
  dataset::StoreWriter writer(store_path, schema, wopts);
  std::vector<std::vector<std::uint8_t>> codes(
      kOocCols, std::vector<std::uint8_t>());
  for (auto& col : codes) col.reserve(kOocRows);
  std::vector<int> y;
  y.reserve(kOocRows);
  dataset::StoreError serr;
  for (std::uint64_t r = 0; r < kOocRows; ++r) {
    for (std::size_t c = 0; c < kOocCols; ++c) {
      const auto code = static_cast<std::uint8_t>(
          ml::quantize_bin(cuts[c], ooc_value(r, c)));
      writer.add_u8(c, code);
      codes[c].push_back(code);
    }
    const int label = ooc_label(r);
    writer.add_i32(kOocCols, label);
    y.push_back(label);
    if (!writer.end_row(&serr)) break;
  }
  if (!serr) writer.finalize(&serr);
  if (serr) {
    std::fprintf(stderr, "ooc-compare: store write failed: %s\n",
                 serr.message.c_str());
    return 1;
  }
  struct stat stbuf {};
  const std::uint64_t store_bytes =
      ::stat(store_path.c_str(), &stbuf) == 0
          ? static_cast<std::uint64_t>(stbuf.st_size)
          : 0;
  std::uint64_t payload_bytes = 0;
  {
    auto probe_reader = dataset::StoreReader::open(store_path, &serr);
    if (!probe_reader) {
      std::fprintf(stderr, "ooc-compare: reopen failed: %s\n",
                   serr.message.c_str());
      return 1;
    }
    payload_bytes = probe_reader->payload_bytes();
  }
  std::printf("ooc-compare: store %s  (%.1f MB file, %.1f MB payload)\n",
              store_path.c_str(), static_cast<double>(store_bytes) / 1048576.0,
              static_cast<double>(payload_bytes) / 1048576.0);

  const dataset::ResidentCodeSource resident(std::move(codes), cuts, kOocBins);
  const std::string exe = self_exe(argv0);

  core::Json arr = core::Json::array();
  bool all_identical = true;
  bool rss_ok = true;
  for (const int w : kWidths) {
    // Resident arm in-process (RSS is irrelevant here; this arm defines
    // the reference digest).
    core::set_global_threads(w);
    ml::RandomForest rf(ooc_forest_cfg());
    const auto t0 = std::chrono::steady_clock::now();
    rf.fit_binned(resident, y, kOocClasses);
    const double resident_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const std::string resident_digest = ooc_digest(rf);

    // Paged arm in a child process: ru_maxrss is process-monotone, so the
    // parent (which just held the whole dataset) cannot measure a paged
    // peak — a fresh process can.
    const std::string cmd = "SUGAR_THREADS=" + std::to_string(w) +
                            " SUGAR_PAGE_CACHE_MB=" +
                            std::to_string(kOocBudgetMb) + " " +
                            shell_quote(exe) + " --ooc-fit " +
                            shell_quote(store_path);
    FILE* pipe = ::popen(cmd.c_str(), "r");
    if (!pipe) {
      std::fprintf(stderr, "ooc-compare: popen failed\n");
      return 1;
    }
    std::string child_out;
    char buf[4096];
    while (std::fgets(buf, sizeof(buf), pipe)) child_out += buf;
    const int status = ::pclose(pipe);
    std::optional<core::Json> child;
    // The evidence line is the last parseable line on the child's stdout.
    std::istringstream lines(child_out);
    for (std::string line; std::getline(lines, line);)
      if (auto j = core::Json::parse(line)) child = std::move(j);
    if (status != 0 || !child || !child->is_object()) {
      std::fprintf(stderr,
                   "ooc-compare: --ooc-fit child (threads=%d) failed "
                   "(status %d)\n",
                   w, status);
      return 1;
    }
    const auto num = [&](const char* key) {
      const core::Json* v = child->find(key);
      return v ? v->number_or(0.0) : 0.0;
    };
    const core::Json* dj = child->find("digest");
    const std::string paged_digest = dj ? dj->string_or("") : "";
    const double paged_seconds = num("seconds");
    const auto paged_rss = static_cast<std::uint64_t>(num("peak_rss_bytes"));
    const double hit_rate = num("hit_rate");
    const bool identical = paged_digest == resident_digest;
    const bool under = paged_rss > 0 && paged_rss < payload_bytes;
    all_identical = all_identical && identical;
    rss_ok = rss_ok && under;

    core::Json row = core::Json::object();
    row.set("threads", core::Json(w));
    row.set("resident_digest", core::Json(resident_digest));
    row.set("paged_digest", core::Json(paged_digest));
    row.set("identical", core::Json(identical));
    row.set("resident_seconds", core::Json(resident_seconds));
    row.set("paged_seconds", core::Json(paged_seconds));
    row.set("paged_rows_per_sec",
            core::Json(paged_seconds > 0
                           ? static_cast<double>(kOocRows) / paged_seconds
                           : 0.0));
    row.set("paged_peak_rss_bytes", core::Json(paged_rss));
    row.set("rss_under_dataset", core::Json(under));
    row.set("hit_rate", core::Json(hit_rate));
    row.set("hits", core::Json(num("hits")));
    row.set("misses", core::Json(num("misses")));
    row.set("evictions", core::Json(num("evictions")));
    row.set("prefetch_issued", core::Json(num("prefetch_issued")));
    row.set("prefetch_loaded", core::Json(num("prefetch_loaded")));
    arr.push(row);
    std::printf(
        "ooc-compare t=%d  resident %.2fs  paged %.2fs  rss %.1f MB / "
        "payload %.1f MB  hit %.3f  %s %s\n",
        w, resident_seconds, paged_seconds,
        static_cast<double>(paged_rss) / 1048576.0,
        static_cast<double>(payload_bytes) / 1048576.0, hit_rate,
        identical ? "bit-identical" : "DIGEST MISMATCH",
        under ? "rss-ok" : "RSS OVER DATASET");
  }
  core::set_global_threads(0);  // restore SUGAR_THREADS / hardware default
  std::remove(store_path.c_str());

  core::Json doc = core::Json::object();
  doc.set("schema_version", core::Json(1));
  doc.set("bench", core::Json("micro_substrate_ooc"));
  doc.set("rows", core::Json(kOocRows));
  doc.set("features", core::Json(kOocCols));
  doc.set("bins", core::Json(kOocBins));
  doc.set("classes", core::Json(kOocClasses));
  doc.set("trees", core::Json(ooc_forest_cfg().num_trees));
  doc.set("group_rows", core::Json(kOocGroupRows));
  doc.set("store_bytes", core::Json(store_bytes));
  doc.set("payload_bytes", core::Json(payload_bytes));
  doc.set("page_cache_budget_mb", core::Json(kOocBudgetMb));
  doc.set("cases", arr);
  doc.set("all_identical", core::Json(all_identical));
  doc.set("rss_ok", core::Json(rss_ok));
  std::string err;
  if (!core::atomic_write_file(path, doc.dump(2) + "\n", &err)) {
    std::fprintf(stderr, "ooc-compare: artifact write failed: %s\n",
                 err.c_str());
    return 1;
  }
  std::printf("Artifact: %s\n", path.c_str());
  if (!all_identical) {
    std::fprintf(stderr,
                 "ooc-compare: paged fit differs from resident fit — "
                 "bit-identity contract violated\n");
    return 1;
  }
  if (!rss_ok) {
    std::fprintf(stderr,
                 "ooc-compare: a paged child's peak RSS reached the dataset "
                 "size — the fit did not stream\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--substrate-compare") == 0) {
    if (argc != 3) {
      std::fprintf(stderr,
                   "usage: bench_micro_substrate --substrate-compare <out.json>\n");
      return 2;
    }
    return run_substrate_compare(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--simd-compare") == 0) {
    if (argc != 3) {
      std::fprintf(stderr,
                   "usage: bench_micro_substrate --simd-compare <out.json>\n");
      return 2;
    }
    return run_simd_compare(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--trace-compare") == 0) {
    if (argc != 3) {
      std::fprintf(stderr,
                   "usage: bench_micro_substrate --trace-compare <out.json>\n");
      return 2;
    }
    return run_trace_compare(argv[2]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--ooc-compare") == 0) {
    if (argc != 3) {
      std::fprintf(stderr,
                   "usage: bench_micro_substrate --ooc-compare <out.json>\n");
      return 2;
    }
    return run_ooc_compare(argv[2], argv[0]);
  }
  if (argc >= 2 && std::strcmp(argv[1], "--ooc-fit") == 0) {
    if (argc != 3) {
      std::fprintf(stderr,
                   "usage: bench_micro_substrate --ooc-fit <store.sugc>\n");
      return 2;
    }
    return run_ooc_fit_child(argv[2]);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
