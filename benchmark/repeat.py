#!/usr/bin/env python3
"""Run the benchmark K times and report how much each metric moves.

  python3 benchmark/repeat.py [-k 3] [--seed N] [--vary-seed] [--workloads a,b]
                              [--out FILE] [--against FILE]

Runs go round-robin over the workloads, so slow spells of a shared host
spread across all of them. For every workload and metric it prints the
median, the interquartile range (statistics.quantiles, n=4) and the spread
(IQR / median). An end-to-end metric fails when its spread exceeds its bound
(BENCHMARK.json, plus the workload's own metrics in its workload file);
set bounds from this output and keep each at least three times the spread
seen. --vary-seed gives run i the seed N+i. --out
saves every run's values; --against compares this set's medians with a
saved set and fails when one got worse by more than its bound. Exits
non-zero on any failure, including a failed output check.
"""

import argparse
import json
import statistics
import sys

sys.dont_write_bytecode = True
import benchlib  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("-k", type=int, default=3, help="runs per workload (default 3)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--vary-seed", action="store_true", help="run i uses seed SEED+i")
    p.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    p.add_argument("--out", help="save every run's metric values to this JSON file")
    p.add_argument("--against", help="a saved --out file to compare medians with")
    args = p.parse_args()

    spec = benchlib.benchmark_spec()
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    values = {w: {} for w in names}
    failed_runs = []
    for i in range(args.k):
        seed = args.seed + i if args.vary_seed else args.seed
        for w in names:
            results = benchlib.run_workload(benchlib.ROOT, w, seed)
            if results is None or results["failed"]:
                failed_runs.append(f"{w} seed {seed}")
                continue
            for key, m in results["metrics"].items():
                values[w].setdefault(key, []).append(m["value"])
            print(f"run {i + 1}/{args.k} {w} seed {seed} done", file=sys.stderr)

    previous = None
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)
    problems = [f"run failed: {r}" for r in failed_runs]
    for w in names:
        bounds = {m["name"]: m for m in benchlib.end_to_end(w)}
        print(f"\n{w}")
        print(f"  {'metric':34} {'median':>14} {'IQR':>12} {'spread':>8} {'bound':>7}")
        for key in sorted(values[w]):
            v = values[w][key]
            med = statistics.median(v)
            sp = benchlib.spread(v)
            iqr = sp * abs(med)
            metric = bounds.get(key)
            bound = metric["bound"] if metric else None
            note = ""
            if metric and sp > bound:
                note = "SPREAD > BOUND"
                problems.append(f"{w} {key}: spread {sp:.4f} > bound {bound}")
            if metric and previous and key in previous.get(w, {}):
                drift = benchlib.worse_by(metric, statistics.median(previous[w][key]), med)
                note += f" drift {drift:+.4f}"
                if drift > bound:
                    problems.append(f"{w} {key}: {drift:.4f} worse than the saved set "
                                    f"(bound {bound})")
            bound_s = f"{bound:7.3f}" if bound is not None else "      -"
            print(f"  {key:34} {med:14.6g} {iqr:12.4g} {sp:8.4f} {bound_s} {note}")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    for prob in problems:
        print("FAIL:", prob, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
