#!/usr/bin/env python3
"""Run benchmark workloads and report every metric.

Called by benchmark/run.sh once mccp_bench is built:

  run.sh [--seed N] [--workloads a,b] [--trace] [--seconds S]
  run.sh --workload NAME --seed N --seconds S --trace 0|1

Each workload runs in its own mccp_bench process and writes
build-benchmark/results/<workload>.json (and <workload>.trace.json, a Chrome
trace, with --trace). Every metric is printed as "workload metric value
unit". With exactly one workload the last line is a one-line JSON summary:
correct, attempted, failed, and the end-to-end metrics BENCHMARK.json lists
(its per-layer metrics with --trace). Exits non-zero if any output check failed.
A missed latency limit (benchlib.limit_misses) is printed; it is no output
failure.
"""

import argparse
import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import benchlib  # noqa: E402

BINARY = os.path.join(benchlib.ROOT, "build-benchmark", "mccp_bench")
RESULTS = os.path.join(benchlib.ROOT, "build-benchmark", "results")
WORKLOADS = [w["name"] for w in benchlib.benchmark_spec()["workloads"]]


def check_pins(name, results):
    """Modelled figures and exact counts against the workload file's pins.
    Traffic shape is fixed per workload, so they hold for every seed.
    Returns (checks made, failures)."""
    pins = benchlib.workload_file(name).get("pins")
    if not pins:
        return 1, [f"no pins in benchmark/workloads/{name}.json"]
    failures = [f"pin {key}: want {want}, got {results['counts'].get(key)}"
                for key, want in pins.items() if results["counts"].get(key) != want]
    return len(pins), failures


def run_one(name, args):
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, name + ".json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [BINARY, "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "1" if args.trace else "0", "--out", out,
           "--workloads-dir", benchlib.WORKLOADS_DIR]
    if args.trace:
        cmd += ["--trace-out", os.path.join(RESULTS, name + ".trace.json")]
    try:
        subprocess.run(cmd, cwd=benchlib.ROOT, timeout=170)
    except subprocess.TimeoutExpired:
        print(f"run.py: {name} timed out", file=sys.stderr)
        return None
    if not os.path.exists(out):
        print(f"run.py: {name} wrote no results", file=sys.stderr)
        return None
    with open(out) as f:
        results = json.load(f)
    attempted, failures = check_pins(name, results)
    results["attempted"] += attempted
    results["failed"] += len(failures)
    results["failures"] += failures
    results["limit_misses"] = benchlib.limit_misses(name, results)
    return results


def print_metrics(name, results):
    metrics = results["metrics"]
    order = sorted(metrics, key=lambda k: (metrics[k]["layer"] != "e2e", k))
    for key in order:
        m = metrics[key]
        value = "inf" if m["value"] is None else f"{m['value']:.6g}"  # null: not finite
        print(f"{name} {key} {value} {m['unit']}")
        if m["unit"] == "us":
            print(f"{name} {key}.samples {m['samples']} count")
    print(f"{name} fail_frac {results['failed'] / max(results['attempted'], 1):.6g} ratio")
    for failure in results["failures"]:
        print(f"{name}: FAILED {failure}", file=sys.stderr)
    for miss in results["limit_misses"]:
        print(f"{name}: LIMIT MISSED {miss}", file=sys.stderr)


def summary(name, results, trace):
    """The one-line JSON summary: exactly the metrics BENCHMARK.json lists."""
    spec = benchlib.benchmark_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = results["metrics"].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            raise SystemExit(f"run.py: {name} did not report {m['name']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return json.dumps({"correct": results["failed"] == 0, "attempted": results["attempted"],
                       "failed": results["failed"], "metrics": metrics})


def main():
    spec = benchlib.benchmark_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", "--workload", default=",".join(WORKLOADS),
                   help="comma-separated workload names (default: all)")
    p.add_argument("--seed", type=int, default=1, help="input seed (default 1; 2 is held out)")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="measured seconds per workload")
    p.add_argument("--trace", nargs="?", const="1", default="0", choices=["0", "1"],
                   help="also run the traced repetitions and per-layer replays")
    args = p.parse_args()
    args.trace = args.trace == "1"
    names = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        p.error(f"unknown workload(s) {', '.join(unknown)}; known: {', '.join(WORKLOADS)}")

    ok = True
    last = None
    for name in names:
        results = run_one(name, args)
        if results is None:
            return 1
        print_metrics(name, results)
        ok = ok and results["failed"] == 0
        last = (name, results)
    if len(names) == 1:
        print(summary(*last, args.trace))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
