"""Shared helpers for the benchmark scripts (run.py, repeat.py, compare.py)."""

import json
import math
import os
import statistics
import subprocess

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS_DIR = os.path.join(HERE, "workloads")


def benchmark_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def workload_file(name, root=ROOT):
    """The workload's definition file: pins, and end-to-end metrics that
    only this workload reports."""
    with open(os.path.join(root, "benchmark", "workloads", name + ".json")) as f:
        return json.load(f)


def end_to_end(name, root=ROOT):
    """Every end-to-end metric of a workload with its unit, direction and
    bound: BENCHMARK.json's, plus the workload's own."""
    metrics = list(benchmark_spec(root)["end_to_end"])
    metrics += workload_file(name, root).get("end_to_end", [])
    return metrics


def spread(values):
    """Interquartile range as a share of the median (statistics.quantiles,
    n=4), the spread a metric's bound is held to."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def worse_by(metric, old, new):
    """How much worse `new` is than `old` for `metric`, as a share of `old`
    (zero or negative: not worse)."""
    if old == 0:
        return 0.0
    change = (new - old) / abs(old)
    return -change if metric["better"] == "higher" else change


def limit_misses(name, results, root=ROOT):
    """The latency limits a run missed: net_open_loop's p99 limit at its
    fixed open-loop rate, both recorded in its workload file. A miss is no
    output error (a busy host alone can cause one), but the rate was not
    served, so repeat.py and compare.py count the run as failed."""
    limit = workload_file(name, root).get("open_loop", {}).get("p99_limit_us")
    if limit is None:
        return []
    got = results["metrics"].get("req_p99_us", {}).get("value")
    if got is None:  # not finite (requests went unanswered) or not measured
        got = math.inf
    if got <= limit:
        return []
    return [f"req_p99_us {got} us is over the {limit} us limit at the fixed open-loop rate"]


def run_workload(root, workload, seed):
    """One untraced run.sh invocation in the checkout at `root`; returns its
    results file as a dict (None when the run failed or missed a limit)."""
    cmd = ["bash", os.path.join(root, "benchmark", "run.sh"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL, timeout=900)
    path = os.path.join(root, "build-benchmark", "results", workload + ".json")
    if proc.returncode != 0 or not os.path.exists(path):
        return None
    with open(path) as f:
        results = json.load(f)
    if limit_misses(workload, results, root):
        return None
    return results
