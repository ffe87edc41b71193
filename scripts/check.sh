#!/usr/bin/env bash
# Repository hygiene driver.
#
#   scripts/check.sh            plain build + unit tests + streaming gate
#   scripts/check.sh sanitize   asan / ubsan / tsan build-and-test matrix
#   scripts/check.sh bench      plain build + every bench at smoke scale,
#                               then perfbench built against this tree's
#                               src/ and smoke-run (perfbench/smoke_test.py)
#   scripts/check.sh trace      observability matrix: ctest -L trace
#                               (schema-4 corpus, traced Fig 6 smoke vs the
#                               golden, golden artifact), the trace unit and
#                               integration tests (per-kernel identity across
#                               off/summary/spans), TSan over concurrent span
#                               emission, and the scripts/profile.sh harness
#   scripts/check.sh serve      online-engine matrix: flow-table/engine/
#                               determinism/stream-fault unit tests, the
#                               bench_serve load ladder + fault matrix at
#                               smoke scale, and the serve concurrency
#                               stress under TSan
#   scripts/check.sh trees      histogram-tree matrix: binned/tree/forest/
#                               gbdt unit tests swept at SUGAR_THREADS=1/2/7
#                               and the forest/GBDT fit stress under TSan
#   scripts/check.sh ooc        out-of-core matrix: store/pager/paged-fit
#                               unit tests swept at SUGAR_THREADS=1/2/7,
#                               the pager storm under TSan, and the
#                               ooc_stream gate (resident vs paged fit
#                               digests identical at every width, paged
#                               peak RSS < dataset payload)
#   scripts/check.sh scenario   scenario-diversity matrix: the variant/
#                               drift/perturbation property tests swept at
#                               SUGAR_THREADS=1/2/7, the QUIC/DoH fuzz
#                               corpus, both scenario benches at tiny scale
#                               with json_check'd artifacts, the drift
#                               golden replayed at widths 2 and 7, and the
#                               new tests plus both benches under ASan at
#                               SUGAR_THREADS=7
#   scripts/check.sh crash      crash-tolerance matrix: the chaos label
#                               (snapshot kill/restore/replay determinism,
#                               corruption corpus, breaker, watchdog) swept
#                               at SUGAR_THREADS=1/2/7, plus the chaos
#                               smoke under TSan
#   scripts/check.sh simd       portable core::simd backends: the default
#                               build compiles the build host's widest
#                               backend (AVX2 where the host runs it), so
#                               the SSE2 backend and the scalar fallback get
#                               their own builds, each running the kernel,
#                               pool-width, training-digest, flow-cell,
#                               flow-id and trace-mode identity tests and
#                               both goldens
#   scripts/check.sh perf       perf ledger (BENCH_trajectory.json): with
#                               PERF_BASE=<git rev> and PERF_PR=<n>, first
#                               runs perfbench pairs of that revision against
#                               this tree and appends them as an entry; then
#                               prints the newest entry against the
#                               BENCHMARK.json bounds and fails if a median
#                               is worse than its bound
#   scripts/check.sh all        everything above but perf
#
# Each configuration builds into its own directory (build-check, build-asan,
# build-ubsan, build-tsan, build-sse2, build-scalar) so sanitizer and
# backend flags never leak into the default ./build tree. The determinism
# gates (pool widths 1/2/7, SIMD backends vs scalar,
# trace modes, resident vs paged) are gtests and must pass everywhere;
# performance is measured by perfbench, never gated here.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"
MODE="${1:-quick}"

run() {
  echo "+ $*" >&2
  "$@"
}

# configure_build <dir> [extra cmake args...]
configure_build() {
  local dir="$1"
  shift
  run cmake -B "$dir" -S . "$@"
  run cmake --build "$dir" -j "$JOBS"
}

plain() {
  configure_build build-check
  # Everything except the slow bench sweep: unit/property tests, the
  # out-of-core streaming gate, and the sanitizer smoke binaries in their
  # plain-build form.
  run ctest --test-dir build-check --output-on-failure -j "$JOBS" -LE bench_smoke
}

sanitize() {
  configure_build build-asan -DSUGAR_SANITIZE=address
  run ctest --test-dir build-asan --output-on-failure -j "$JOBS" -LE bench_smoke

  configure_build build-ubsan -DSUGAR_SANITIZE=undefined
  # UBSan gets the dedicated vector-kernel sweep plus the determinism gates
  # (their scalar-reference and cross-width comparisons execute every SIMD
  # code path under the sanitizer), the training digest pins (with the
  # gates' MLP fit they run every network fit's shared epoch loop), the
  # trace-mode identity, the streaming gate, and the hostile-byte tests:
  # the shared byte codec, CRC32, pcap and its stream-fault corpora, the
  # SUGC corruption corpus, the snapshot corruption corpus (chaos_tests)
  # and the parser fuzz smoke, plus the SUGAR_SCALE range check (a scale
  # whose product overflows size_t). ctest ANDs -L with -R, hence two calls.
  run ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" -L ubsan
  run ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" \
      -R 'ParallelDeterminism\.|Pretrain\.TrainingDigests|DownstreamModel\.FrozenFitDigests|Simd(Reductions|Elementwise|Determinism)\.|SquaredDistance\.|ReluInplace\.|SoftmaxRows\.|ModesNeverChangeResults|^ooc_stream$|ByteReader\.|ByteWriter\.|Crc32\.|Pcap\.|FaultInjection\.(Stream|QuicDohStream)|StoreTest\.|^chaos_tests$|^fuzz_parser_smoke$|EnvConfig\.IgnoresInvalidValues'

  configure_build build-tsan -DSUGAR_SANITIZE=thread
  # The stress binaries plus the pool-width gates (kernels and the training
  # digest pins) and the paged fits racing the prefetch thread. ooc_stream
  # stays out: under TSan its RSS bound would measure TSan's shadow memory,
  # not the fit.
  run ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L tsan
  run ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
      -R 'ParallelDeterminism\.|Pretrain\.TrainingDigests|DownstreamModel\.FrozenFitDigests|PagedFitTest\.|ModesNeverChangeResults'
}

bench() {
  configure_build build-check
  run ctest --test-dir build-check --output-on-failure -L bench_smoke
  # The repo benchmark compiles against src/ (into .bench_build/), so an API
  # change that breaks its build fails here, not first in a benchmark run.
  run python3 perfbench/smoke_test.py
}

trace() {
  configure_build build-check
  # Everything labeled `trace`: the schema-4 validation corpus, the traced
  # Fig 6 smoke + chrome dump + compare against the untraced golden, and
  # the golden-artifact regression compare. Then the trace unit and
  # integration tests, among them the per-kernel off/summary/spans
  # identity gate.
  run ctest --test-dir build-check --output-on-failure -L trace
  run ctest --test-dir build-check --output-on-failure -j "$JOBS" \
      -R 'TraceTest\.|TraceIntegrationTest\.'
  # Concurrent span emission under TSan: emitters, some dispatching to the
  # pool, racing snapshotters.
  configure_build build-tsan -DSUGAR_SANITIZE=thread
  run ctest --test-dir build-tsan --output-on-failure -R tsan_stress_trace
  # Profiling harness: one traced Fig 6 run, its artifact and chrome dump
  # json_check-validated, and the top phases by wall time.
  run scripts/profile.sh build-check
}

serve() {
  configure_build build-check
  # The serving tier end-to-end: table/engine/determinism unit tests, the
  # streaming fault modes, the overload bench with its json_check'd
  # artifact (latency percentiles + monotone shed/evict snapshots), and
  # the concurrency stress in its plain-build form.
  run ctest --test-dir build-check --output-on-failure -j "$JOBS" \
      -R 'FlowTable|ServeEngine|ServeDeterminism|ServeStress|StreamFaults|serve_stress|bench_serve'
  # Producers writing the ingest ring vs the pump's rounds, stats
  # snapshotters, the idle evictor and a checkpointer under TSan.
  configure_build build-tsan -DSUGAR_SANITIZE=thread
  run ctest --test-dir build-tsan --output-on-failure -R serve_stress
}

trees() {
  configure_build build-check
  # The histogram-tree substrate's determinism contract: quantization,
  # sibling subtraction, and the forest/GBDT fit digests must be identical
  # at every pool width. The unit tests pin widths internally; the ambient
  # sweep on top catches any width assumption they missed.
  for threads in 1 2 7; do
    SUGAR_THREADS="$threads" run ctest --test-dir build-check \
        --output-on-failure \
        -R 'QuantizeBin|BinnedMatrix|HistogramTree|DecisionTree|RandomForest|Gbdt|ParallelDeterminism'
  done
  # Per-tree forest and per-class GBDT fits racing on one pool under TSan.
  configure_build build-tsan -DSUGAR_SANITIZE=thread
  run ctest --test-dir build-tsan --output-on-failure -R tsan_stress_trees
}

ooc() {
  configure_build build-check
  # The out-of-core substrate's own contract: SUGC round-trip + corruption
  # corpus, page-cache eviction/pin/prefetch semantics, paged-vs-resident
  # fit bit-identity and the pinned run_ooc_scale digest, swept at several
  # ambient pool widths (the fit and digest tests pin widths internally;
  # the sweep catches leaks around them).
  for threads in 1 2 7; do
    SUGAR_THREADS="$threads" run ctest --test-dir build-check \
        --output-on-failure \
        -R 'StoreTest|PagedFitTest|PageCache|PagerTsan|OocScale'
  done
  # The streaming gate: paged children fit a store 24x their cache budget
  # with digests identical to the resident fit and peak RSS below the
  # dataset payload.
  run ctest --test-dir build-check --output-on-failure -L ooc
  # Demand loads racing prefetch, eviction and drop_file under TSan.
  configure_build build-tsan -DSUGAR_SANITIZE=thread
  run ctest --test-dir build-tsan --output-on-failure -R tsan_stress
}

crash() {
  configure_build build-check
  # Crash-recovery determinism is part of the bit-identity contract, so the
  # whole chaos label (kill/restore/replay identity, corruption corpus,
  # breaker state machine, watchdog escalation) runs at several pool
  # widths: the suite pins its own widths internally AND the ambient
  # substrate is varied on top, catching width assumptions either way.
  for threads in 1 2 7; do
    SUGAR_THREADS="$threads" run ctest --test-dir build-check \
        --output-on-failure -L chaos
  done
  # Chaos storm (stalls, classifier faults, disk faults, breaker flips)
  # under TSan: the pump's rounds racing a background idle evictor through
  # every injection site and the breaker.
  configure_build build-tsan -DSUGAR_SANITIZE=thread
  run ctest --test-dir build-tsan --output-on-failure -R chaos_tsan_smoke
}

scenario() {
  configure_build build-check
  # Variant-layer properties (identity-at-default, digest stability,
  # drift monotonicity, imbalance, QUIC/DoH shapes), the header-jitter
  # mutations, the journal-key coverage, and the extended fuzz corpus —
  # swept at several ambient pool widths.
  for threads in 1 2 7; do
    SUGAR_THREADS="$threads" run ctest --test-dir build-check \
        --output-on-failure \
        -R 'Drift|Mutate.Jitter|CellKeys|ChangedPerturbation|FaultInjection.QuicDoh|fuzz_parser_smoke'
  done
  # Both scenario benches end-to-end at tiny scale, artifacts json_check'd,
  # plus the traced schema-4 smokes.
  run ctest --test-dir build-check --output-on-failure -L scenario
  # The drift golden must replay bit-identically at wider pools: rerun the
  # pinned-scale bench at widths 2 and 7 against the checked-in reference.
  for threads in 2 7; do
    SUGAR_SCALE=0.05 SUGAR_EPOCHS=1 SUGAR_SEED=1 SUGAR_THREADS="$threads" \
        run build-check/bench/bench_drift_transfer \
        --json "build-check/bench/golden_drift_w${threads}.json" \
        --cell-timeout-s 300 --drift-epochs 2
    run build-check/bench/json_check --golden \
        "build-check/bench/golden_drift_w${threads}.json" \
        tests/golden/BENCH_drift_normalized.json
  done
  # The whole tier again under ASan at the widest sweep width.
  configure_build build-asan -DSUGAR_SANITIZE=address
  SUGAR_THREADS=7 run ctest --test-dir build-asan --output-on-failure \
      -R 'Drift|Mutate.Jitter|CellKeys|ChangedPerturbation|FaultInjection.QuicDoh'
  SUGAR_THREADS=7 run ctest --test-dir build-asan --output-on-failure -L scenario
}

simd() {
  # The default build selects AVX2 on an AVX2 host. Presetting the host
  # probe's cached result off builds the portable SSE2 backend there; the
  # scalar fallback is forced at compile time. Every lane op is the same
  # IEEE-754 operation on every backend, so the digest pins and goldens,
  # recorded once, must pass unchanged in both builds.
  configure_build build-sse2 -DSUGAR_HOST_AVX2=OFF
  configure_build build-scalar -DCMAKE_CXX_FLAGS=-DSUGAR_SIMD_FORCE_SCALAR
  for dir in build-sse2 build-scalar; do
    run ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
        -R '^Simd|^Matrix|ParallelDeterminism\.|^Mlp|Pretrain\.TrainingDigests|DownstreamModel\.FrozenFitDigests|TraceIntegrationTest\.ModesNeverChangeResults|PipelineTest\.FlowScenarioPcapEncoderMajorityVote|BenchmarkEnv\.FlowIdDigestsPinned'
    run ctest --test-dir "$dir" --output-on-failure -L golden
  done
}

perf() {
  # Performance is measured by perfbench and recorded in the ledger, never
  # gated in ctest. PERF_SEEDS and PERF_WORKLOADS (default: every
  # BENCHMARK.json workload) pick the pairs; the parent side is an export
  # of PERF_BASE, the change side this working tree.
  if [[ -n "${PERF_BASE:-}" ]]; then
    local base change
    base="$(mktemp -d)"
    git archive "$PERF_BASE" | tar -x -C "$base"
    # The change side is this working tree: uncommitted edits are the
    # change itself, so a dirty tree has no hash of its own to name.
    if [[ -n "$(git status --porcelain)" ]]; then
      change="(this change)"
    else
      change="$(git rev-parse --short HEAD)"
    fi
    run python3 scripts/perf_ledger.py append --parent "$base" --change . \
        --pr "${PERF_PR:?PERF_PR must name the change}" --title "${PERF_TITLE:-}" \
        --commit "$(git rev-parse --short "$PERF_BASE")..$change" \
        ${PERF_WORKLOADS:+--workloads "$PERF_WORKLOADS"} \
        --seeds "${PERF_SEEDS:-1,2,3,4,5,6,7,8,9,10}"
    rm -rf "${base:?}"
  fi
  run python3 scripts/perf_ledger.py compare
}

case "$MODE" in
  quick) plain ;;
  sanitize) sanitize ;;
  bench) bench ;;
  trace) trace ;;
  trees) trees ;;
  serve) serve ;;
  ooc) ooc ;;
  crash) crash ;;
  scenario) scenario ;;
  simd) simd ;;
  perf) perf ;;
  all)
    plain
    bench
    trace
    trees
    serve
    ooc
    crash
    scenario
    simd
    sanitize
    ;;
  *)
    echo "usage: scripts/check.sh [quick|sanitize|bench|trace|trees|serve|ooc|crash|scenario|simd|perf|all]" >&2
    exit 2
    ;;
esac

echo "check.sh: $MODE passed"
