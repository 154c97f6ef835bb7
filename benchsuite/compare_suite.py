#!/usr/bin/env python3
"""Compare two sets of bench_suite results against BENCHMARK.json's bounds.

    python3 benchsuite/compare_suite.py BASE CHANGE [--benchmark BENCHMARK.json]

BASE and CHANGE are each a bench_suite JSON file (one workload, or the
combined output of workload=all) or a directory of such files, one per run.
With several runs a side's value is the median of its runs. For every
workload and every end-to-end metric the change may be worse than the base
by at most the metric's bound, as a share of the base median, in the
metric's "better" direction. Simulated statistics (metrics bench_suite
flags "exact") must be identical, to a relative 1e-9, between runs of the
same seed: a change that only speeds up the simulator leaves them alone.
One row is printed per workload; each cell shows how much better (+) or
worse (-) the change is. Exit status: 0 when every metric holds, 1 when any
regresses, a simulated statistic changed, a run was incorrect or a metric
is missing.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

DEFAULT_BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path):
    """Map workload -> list of per-run result objects."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        data = json.loads(f.read_text())
        workloads = data.get("workloads", {data.get("workload"): data})
        for name, result in workloads.items():
            runs.setdefault(name, []).append(result)
    return runs


def worse_share(base, change, better):
    """How much worse `change` is than `base`, as a share of `base`."""
    if base == 0:
        return 0.0 if change == base else float("inf")
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def changed_simulated(base, change):
    """Names of exact metrics that differ between runs of the same seed."""
    base_by_seed = {r.get("info", {}).get("seed"): r for r in base}
    changed = set()
    for run in change:
        reference = base_by_seed.get(run.get("info", {}).get("seed"))
        if reference is None:
            continue
        for name, metric in reference["metrics"].items():
            if not metric.get("exact"):
                continue
            other = run["metrics"].get(name)
            if other is None or not math.isclose(
                    metric["value"], other["value"], rel_tol=1e-9,
                    abs_tol=1e-12):
                changed.add(name)
    return sorted(changed)


def compare(base_runs, change_runs, metrics):
    """Yield (workload, cells, ok); a cell is (metric, share, verdict)."""
    for workload in sorted(set(base_runs) | set(change_runs)):
        base = base_runs.get(workload, [])
        change = change_runs.get(workload, [])
        cells = []
        ok = bool(base) and bool(change)
        if not all(r.get("correct") for r in base + change):
            cells.append(("correct", None, "INCORRECT"))
            ok = False
        for name in changed_simulated(base, change):
            cells.append((name, None, "SIMULATION-CHANGED"))
            ok = False
        for metric in metrics:
            name = metric["name"]
            try:
                b = statistics.median(r["metrics"][name]["value"]
                                      for r in base)
                c = statistics.median(r["metrics"][name]["value"]
                                      for r in change)
            except (KeyError, statistics.StatisticsError):
                cells.append((name, None, "MISSING"))
                ok = False
                continue
            share = worse_share(b, c, metric["better"])
            verdict = "ok" if share <= metric["bound"] else "REGRESSED"
            ok = ok and verdict == "ok"
            cells.append((name, share, verdict))
        yield workload, cells, ok


def format_cell(name, share, verdict):
    if share is None:
        return f"{name} {verdict}"
    return f"{name} {-share * 100:+.2f}% {verdict}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    all_ok = True
    for workload, cells, ok in compare(load_runs(args.base),
                                       load_runs(args.change),
                                       spec["end_to_end"]):
        all_ok = all_ok and ok
        print(f"{workload:10s} {'ok ' if ok else 'BAD'} | " +
              " | ".join(format_cell(*cell) for cell in cells))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
