#!/usr/bin/env python3
"""Smoke test of the repo benchmark (see perfbench/README.md).

    python3 perfbench/smoke_test.py      # from the repository root

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
through perfbench/run.py, and checks that:
  * the last stdout line is the result object with exactly its four keys,
    correct is true, and the exit code is 0;
  * every metric BENCHMARK.json names for the mode is emitted once, is
    finite and carries its declared unit, and end-to-end metrics are > 0;
  * the traced run reproduces the untraced run's macro-F1 and counts.
Exits 1 and lists what failed otherwise.
"""
import json
import math
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
# The open loop's pump rounds follow the clock, so idle eviction can split
# a flow differently between two runs; its verdicts may differ slightly.
CLOCK_DRIVEN = {"serve_paced"}


def run(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines, done.stderr


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        summaries = {}
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            tag = f"{workload} --trace {trace}"
            code, lines, err = run(workload, trace)
            check(code == 0, f"{tag}: exit code {code}\n{err[-2000:]}")
            if len(lines) < 2:
                check(False, f"{tag}: no result line")
                continue
            result = json.loads(lines[-1])
            summaries[trace] = json.loads(lines[-2]).get("summary")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result keys {sorted(result)}")
            check(result.get("correct") is True, f"{tag}: correct is not true")
            check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
                  f"{tag}: attempted {result.get('attempted')}")
            metrics = result.get("metrics", {})
            check(set(metrics) == {m["name"] for m in declared},
                  f"{tag}: metric names differ from BENCHMARK.json")
            for m in declared:
                got = metrics.get(m["name"])
                if got is None:
                    continue
                value = got.get("value")
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{tag}: {m['name']} is not a finite number")
                check(got.get("unit") == m["unit"], f"{tag}: {m['name']} unit {got.get('unit')}")
                if trace == 0:
                    check(isinstance(value, (int, float)) and value > 0,
                          f"{tag}: {m['name']} = {value} is not > 0")
        if len(summaries) == 2 and summaries[0] and summaries[1]:
            plain, traced = summaries[0], summaries[1]
            for key in sorted(set(plain) | set(traced)):
                if workload in CLOCK_DRIVEN and key == "macro_f1":
                    ok = abs(plain.get(key, -1) - traced.get(key, 1)) <= 0.05
                else:
                    ok = plain.get(key) == traced.get(key)
                check(ok, f"{workload}: traced {key} {traced.get(key)} != untraced {plain.get(key)}")

    for f in failures:
        print("FAIL " + f)
    print(f"perfbench smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
