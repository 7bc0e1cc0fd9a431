#!/usr/bin/env python3
"""Compare two checkouts on the benchmark: a claimed gain and no regression.

  python3 benchmark/compare.py PARENT CHANGE [--claim METRIC@WORKLOAD]

PARENT and CHANGE are checkouts (each builds its own mccp_bench through its
own benchmark/run.sh); their benchmark/ directories and BENCHMARK.json must be
identical, so both sides measure with the same benchmark. Every workload
runs in ten pairs that alternate which side goes first, all on seed 2, the
held-out seed: a claim must hold on inputs nobody tuned against.

A claim is met when CHANGE wins at least nine tenths of the pairs (ties
count for neither side) and the two medians differ by more than the
parent's interquartile range. Every workload also gets a no-regression row:
for each end-to-end metric, CHANGE's median may be worse than PARENT's by at
most the metric's bound. A metric whose parent spread exceeds its bound is
"unresolved" unless every CHANGE run beats every PARENT run. Exits non-zero
when the claim is not met or a metric regressed.
"""

import argparse
import filecmp
import os
import statistics
import sys

sys.dont_write_bytecode = True
import benchlib  # noqa: E402

PAIRS = 10
HELD_OUT_SEED = 2


def same_benchmark(a, b):
    if not filecmp.cmp(os.path.join(a, "BENCHMARK.json"), os.path.join(b, "BENCHMARK.json"),
                       shallow=False):
        return False
    cmp = filecmp.dircmp(os.path.join(a, "benchmark"), os.path.join(b, "benchmark"),
                         ignore=["__pycache__"])
    pending = [cmp]
    while pending:
        d = pending.pop()
        _, mismatch, errors = filecmp.cmpfiles(d.left, d.right, d.common_files, shallow=False)
        if d.left_only or d.right_only or mismatch or errors:
            return False
        pending.extend(d.subdirs.values())
    return True


def better(metric, a, b):
    """True when value a is better than value b."""
    return a > b if metric["better"] == "higher" else a < b


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--claim", help="METRIC@WORKLOAD: the end-to-end metric the change claims "
                   "to improve, and where")
    args = p.parse_args()
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    if not same_benchmark(parent, change):
        sys.exit("compare.py: the two checkouts carry different benchmarks; "
                 "measure both with identical benchmark code")

    names = [w["name"] for w in benchlib.benchmark_spec(parent)["workloads"]]
    if args.claim:
        claim_metric, _, claim_workload = args.claim.partition("@")
        metrics = ({m["name"]: m for m in benchlib.end_to_end(claim_workload, parent)}
                   if claim_workload in names else {})
        if claim_metric not in metrics:
            p.error(f"--claim {args.claim}: want an end-to-end METRIC@WORKLOAD")

    runs = {side: {w: {} for w in names} for side in ("parent", "change")}
    for i in range(PAIRS):
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for w in names:
            for side, root in order:
                results = benchlib.run_workload(root, w, HELD_OUT_SEED)
                if results is None or results["failed"]:
                    sys.exit(f"compare.py: {side} failed or missed a latency limit on {w} "
                             f"(pair {i + 1}); a gain does not count when more operations fail")
                for key, m in results["metrics"].items():
                    runs[side][w].setdefault(key, []).append(m["value"])
            print(f"pair {i + 1}/{PAIRS} done", file=sys.stderr)

    bad = False
    if args.claim:
        metric = metrics[claim_metric]
        pv = runs["parent"][claim_workload][claim_metric]
        cv = runs["change"][claim_workload][claim_metric]
        wins = sum(better(metric, c, q) for q, c in zip(pv, cv))
        gap = abs(statistics.median(cv) - statistics.median(pv))
        iqr = benchlib.spread(pv) * abs(statistics.median(pv))
        met = (wins >= 0.9 * len(pv) and gap > iqr and
               better(metric, statistics.median(cv), statistics.median(pv)))
        print(f"claim {args.claim}: parent median {statistics.median(pv):.6g} "
              f"[{min(pv):.6g}, {max(pv):.6g}], change median {statistics.median(cv):.6g} "
              f"[{min(cv):.6g}, {max(cv):.6g}]; change won {wins}/{len(pv)} pairs; "
              f"median gap {gap:.6g} vs parent IQR {iqr:.6g}: {'MET' if met else 'NOT MET'}")
        bad |= not met

    for w in names:
        cells = []
        for metric in benchlib.end_to_end(w, parent):
            key = metric["name"]
            pv, cv = runs["parent"][w].get(key), runs["change"][w].get(key)
            if not pv or not cv:
                continue
            pm, cm = statistics.median(pv), statistics.median(cv)
            worse = benchlib.worse_by(metric, pm, cm)
            separated = all(better(metric, c, q) for c in cv for q in pv)
            if benchlib.spread(pv) > metric["bound"] and not separated:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "REGRESSED"
                bad = True
            else:
                verdict = "ok"
            cells.append(f"{key} {pm:.6g}->{cm:.6g} ({-worse:+.1%}) {verdict}")
        print(f"{w}: " + "; ".join(cells))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
