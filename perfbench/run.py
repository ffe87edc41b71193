#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <table8|encoders|serve_paced|serve_saturate> \
        --seed <n> --seconds <s> --trace <0|1> [--size <full|tiny>]

Run it from the repository root. It configures perfbench/CMakeLists.txt,
which builds the sugar libraries from src/, into .bench_build/perfbench,
builds it incrementally, then runs one workload in a fresh process with
SUGAR_THREADS set to the number of usable cores and SUGAR_TRACE=off. The
binary's last stdout line is the result JSON. Build output goes to stderr.
When the build fails the script exits 1 and prints no result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build() -> bool:
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(len(os.sched_getaffinity(0)))
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            print("perfbench: build timed out", file=sys.stderr)
            return False
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main() -> int:
    if not build():
        return 1
    # The benchmark fixes every knob itself; stray SUGAR_* settings from the
    # caller's shell must not leak into the measured process.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUGAR_")}
    env["SUGAR_THREADS"] = str(len(os.sched_getaffinity(0)))
    env["SUGAR_TRACE"] = "off"
    binary = os.path.join(BUILD_DIR, "perfbench")
    try:
        done = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
