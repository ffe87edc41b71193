#!/usr/bin/env bash
# Profiling harness for the observability substrate.
#
#   scripts/profile.sh [build-dir]     (default: build)
#
# Runs bench_fig6_timing at smoke scale with SUGAR_TRACE=spans, validates
# the artifact and its chrome://tracing-loadable timeline (kept in the
# output directory) with json_check, and prints a per-phase wall/CPU
# breakdown from the schema-4 trace section. That tracing never changes
# results is checked in ctest: TraceIntegrationTest.ModesNeverChangeResults
# per kernel, and fig6_trace_golden_compare end to end.
#
# Knobs (env): SUGAR_SCALE (default 0.05), SUGAR_EPOCHS (default 1),
# SUGAR_SEED (default 1), SUGAR_PROFILE_DIR (default <build>/profile).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
OUT="${SUGAR_PROFILE_DIR:-$BUILD/profile}"
BENCH="$BUILD/bench/bench_fig6_timing"
CHECK="$BUILD/bench/json_check"

if [[ ! -x "$BENCH" || ! -x "$CHECK" ]]; then
  echo "profile.sh: $BENCH or $CHECK missing — build first:" >&2
  echo "  cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
  exit 2
fi

export SUGAR_SCALE="${SUGAR_SCALE:-0.05}"
export SUGAR_EPOCHS="${SUGAR_EPOCHS:-1}"
export SUGAR_SEED="${SUGAR_SEED:-1}"
mkdir -p "$OUT"

run() {
  echo "+ $*" >&2
  "$@"
}

SUGAR_TRACE=spans run "$BENCH" --json "$OUT/BENCH_fig6_spans.json" \
    --cell-timeout-s 300 --trace "$OUT/fig6_chrome_trace.json"
run "$CHECK" "$OUT/BENCH_fig6_spans.json"
run "$CHECK" --chrome "$OUT/fig6_chrome_trace.json"

# Per-phase breakdown from the spans artifact (no jq dependency).
python3 - "$OUT/BENCH_fig6_spans.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
trace = doc.get("trace", {})
phases = sorted(trace.get("phases", []), key=lambda p: -p["wall_ms"])
print("\nTop phases by wall time (SUGAR_TRACE=spans):")
print(f"  {'phase':<28} {'count':>7} {'wall ms':>10} {'cpu ms':>10}")
for p in phases[:15]:
    print(f"  {p['name']:<28} {p['count']:>7} {p['wall_ms']:>10.2f} {p['cpu_ms']:>10.2f}")
dropped = trace.get("dropped_events", 0)
if dropped:
    print(f"  (dropped events past retention cap: {dropped})")
EOF

echo
echo "profile.sh: traced run done, artifact and chrome trace valid."
echo "Chrome trace: $OUT/fig6_chrome_trace.json (load via chrome://tracing or Perfetto)"
