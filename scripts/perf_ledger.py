#!/usr/bin/env python3
"""The perf ledger: BENCH_trajectory.json at the repo root.

    scripts/perf_ledger.py append --parent DIR --change DIR --pr N \\
        --seeds 1,2,3,... [--workloads table8[,encoders,...]] \\
        [--title TEXT] [--commit SHA] [--ledger FILE]
    scripts/perf_ledger.py compare [--ledger FILE]

`append` measures a change against its parent. DIR are two checkouts (each
with perfbench/ and src/). For every workload (default: all of
BENCHMARK.json's) and seed it runs `python3 perfbench/run.py --workload W
--seed S --seconds N --trace 0` once in each checkout, N being
BENCHMARK.json's run_seconds, alternating which side goes first. The entry
records the commit, the host (nproc and build type, which both sides must
share, and each side's simd backend, from perfbench's attribution line) and,
per workload, the seeds, every run's value and, per end-to-end metric of
BENCHMARK.json, each side's median and quartiles and how many pairs the
change won. Appending the same PR and commit again adds its runs to that
entry's workloads and recomputes their summaries; no run is ever dropped.
Host speed moves medians ~20% between measurements taken hours apart, so
only the two sides of one entry are comparable.

`compare` prints the newest entry metric by metric: the change against its
parent, beside the metric's BENCHMARK.json bound. The first verdict that
holds: "WORSE THAN BOUND" when the median is; "too few pairs" below 10
pairs; "spread unknown" without quartiles (backfilled entries); "gain" when
the change won >= 9 in 10 pairs and the medians differ by more than the
parent's interquartile range; "unresolved" when that range, as a fraction
of the parent's median, exceeds the bound and not every change run beats
every parent run; else "within bound". It exits 1 if a median is worse
than its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "BENCH_trajectory.json")


MIN_PAIRS = 10


def benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def end_to_end_metrics():
    return {m["name"]: m for m in benchmark()["end_to_end"]}


def load(path):
    if not os.path.exists(path):
        return {"schema": 1, "entries": []}
    with open(path) as f:
        return json.load(f)


def dump(value, indent=0):
    """JSON with one line per innermost object, so per-run records stay short."""
    pad = " " * indent
    if isinstance(value, dict) and any(isinstance(v, (dict, list)) for v in value.values()):
        items = [f'{pad}  {json.dumps(k)}: {dump(v, indent + 2).lstrip()}' for k, v in value.items()]
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        return pad + "[\n" + ",\n".join(dump(v, indent + 2) for v in value) + "\n" + pad + "]"
    return pad + json.dumps(value)


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = [json.loads(l) for l in done.stdout.splitlines() if l.startswith("{")]
    if done.returncode != 0 or not lines or not lines[-1].get("correct"):
        sys.exit(f"perf_ledger: {checkout}: {' '.join(cmd)} failed:\n{done.stderr[-2000:]}")
    attribution = next((l["attribution"] for l in lines if "attribution" in l), {})
    return attribution, {k: v["value"] for k, v in lines[-1]["metrics"].items()}


def side_simd(host):
    """Each side's simd backend; older entries hold one backend for both."""
    simd = (host or {}).get("simd")
    return dict(simd) if isinstance(simd, dict) else {"parent": simd, "change": simd}


def record_host(entry, side, attribution):
    """Keeps the side's simd backend; exits if nproc or build type differ."""
    host = entry["host"] or {k: attribution.get(k) for k in ("nproc", "build_type")}
    for key in ("nproc", "build_type"):
        if attribution.get(key) != host[key]:
            sys.exit(f"perf_ledger: the {side} side ran with {key} {attribution.get(key)!r}, "
                     f"the entry's other runs with {host[key]!r}")
    simd = side_simd(host)
    if simd[side] not in (None, attribution.get("simd")):
        sys.exit(f"perf_ledger: the {side} side ran on simd {attribution.get('simd')!r}, "
                 f"its earlier runs on {simd[side]!r}")
    simd[side] = attribution.get("simd")
    host["simd"] = simd
    entry["host"] = host


def quartiles(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3}


def better(metric, a, b):
    """True when value a is strictly better than b for this metric."""
    return a < b if metric["better"] == "lower" else a > b


def summarize(runs, metrics):
    summary = {}
    for name, metric in metrics.items():
        p = [r["parent"][name] for r in runs]
        c = [r["change"][name] for r in runs]
        summary[name] = {"parent": quartiles(p), "change": quartiles(c),
                         "wins": sum(better(metric, cv, pv) for pv, cv in zip(p, c))}
    return summary


def append(args):
    bench = benchmark()
    metrics = end_to_end_metrics()
    seconds = bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    ledger = load(args.ledger)
    entry = next((e for e in ledger["entries"]
                  if e["pr"] == args.pr and e["commit"] == args.commit), None)
    if entry is None:
        entry = {"pr": args.pr, "title": args.title, "commit": args.commit,
                 "source": "perfbench pairs", "seconds": seconds, "host": None,
                 "workloads": {}}
        ledger["entries"].append(entry)
    for workload in workloads:
        w = entry["workloads"].setdefault(
            workload, {"seeds": [], "pairs": 0, "metrics": {}, "runs": []})
        for seed in seeds:
            # Alternate which side goes first, continuing across appends.
            order = ["parent", "change"] if len(w["runs"]) % 2 == 0 else ["change", "parent"]
            run = {"seed": seed, "first": order[0]}
            for side in order:
                attribution, values = run_once(getattr(args, side), workload, seed, seconds)
                run[side] = {m: values[m] for m in metrics if m in values}
                record_host(entry, side, attribution)
            w["runs"].append(run)
            w["seeds"].append(seed)
            print(f"{workload} seed {seed}: wall_s parent {run['parent']['wall_s']:.3f} "
                  f"change {run['change']['wall_s']:.3f}", file=sys.stderr)
        w["pairs"] = len(w["runs"])
        w["metrics"] = summarize(w["runs"], metrics)
        with open(args.ledger, "w") as f:
            f.write(dump(ledger) + "\n")
    compare_entry(entry, metrics)


def verdict(metric, m, pairs, runs):
    """One metric's verdict; m holds its parent/change summaries and wins."""
    p, c = m["parent"], m["change"]
    delta = c["median"] / p["median"] - 1
    if (-delta if metric["better"] == "higher" else delta) > metric["bound"]:
        return "WORSE THAN BOUND"
    if (pairs or 0) < MIN_PAIRS:
        return "too few pairs"
    if "q1" not in p or "wins" not in m:
        return "spread unknown"
    if m["wins"] >= 0.9 * pairs and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]:
        return "gain"
    name = metric["name"]
    if (p["q3"] - p["q1"]) / abs(p["median"]) > metric["bound"] and not (
            runs and all(better(metric, rc["change"][name], rp["parent"][name])
                         for rc in runs for rp in runs)):
        return "unresolved"
    return "within bound"


def compare_entry(entry, metrics):
    """Prints one entry; returns False if any median is worse than its bound."""
    ok = True
    print(f"PR {entry['pr']} ({entry['commit']}): {entry['title']} [{entry['source']}]")
    host = entry.get("host") or {}
    simd = side_simd(host)
    print(f"  host: nproc {host.get('nproc')}, {host.get('build_type')}; "
          f"simd {simd['parent'] or 'unknown'} -> {simd['change'] or 'unknown'}")
    for workload, w in entry["workloads"].items():
        pairs = w.get("pairs")
        print(f"  {workload} ({pairs} pairs)" if pairs else f"  {workload}")
        for name, m in w["metrics"].items():
            p, c = m["parent"], m["change"]
            if name not in metrics or p["median"] == 0:
                continue
            metric = metrics[name]
            delta = c["median"] / p["median"] - 1
            result = verdict(metric, m, pairs, w.get("runs"))
            ok = ok and result != "WORSE THAN BOUND"
            spread = f" [{p['q1']:.4g}-{p['q3']:.4g}]" if "q1" in p else ""
            wins = f", won {m['wins']}/{pairs}" if "wins" in m else ""
            print(f"    {name:12s} {p['median']:.4g}{spread} -> {c['median']:.4g}  "
                  f"{delta:+.1%} (bound {metric['bound']:.0%}{wins}): {result}")
    return ok


def compare(args):
    entries = load(args.ledger)["entries"]
    if not entries:
        sys.exit("perf_ledger: the ledger has no entry")
    return 0 if compare_entry(entries[-1], end_to_end_metrics()) else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    a = sub.add_parser("append")
    a.add_argument("--parent", required=True)
    a.add_argument("--change", required=True)
    a.add_argument("--pr", type=int, required=True)
    a.add_argument("--title", default="")
    a.add_argument("--commit", default="")
    a.add_argument("--workloads", help="comma-separated; default: BENCHMARK.json's")
    a.add_argument("--seeds", required=True)
    a.add_argument("--ledger", default=LEDGER)
    c = sub.add_parser("compare")
    c.add_argument("--ledger", default=LEDGER)
    args = parser.parse_args()
    return append(args) if args.cmd == "append" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
