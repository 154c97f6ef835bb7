#!/usr/bin/env python3
"""Smoke test of bench_suite: all four workloads at tiny sizes, traced, with
every correctness oracle on.

    python3 check_smoke.py BENCH_SUITE_BINARY BENCHMARK.json

Checks that the run exits 0, that every end-to-end and per-layer metric of
BENCHMARK.json is printed for every workload as "workload metric value
unit" with the declared unit, that every workload's JSON says correct with
no failed request, and that each span file is a trace-event document.
Writes its files under the current directory.
"""

import json
import subprocess
import sys
from pathlib import Path

TIMEOUT_S = 20


def main(binary, benchmark):
    spec = json.loads(Path(benchmark).read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    out_dir = Path("bench_suite_smoke")
    out_dir.mkdir(exist_ok=True)
    proc = subprocess.run(
        [binary, "workload=all", "size=smoke", "seconds=0", "traced=1",
         f"json={out_dir / 'suite.json'}",
         f"trace_out={out_dir / 'spans.json'}"],
        stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
    errors = []
    if proc.returncode != 0:
        errors.append(f"bench_suite exited with {proc.returncode}")

    printed = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4:
            printed[(parts[0], parts[1])] = parts[3]
    for workload in workloads:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            unit = printed.get((workload, metric["name"]))
            if unit != metric["unit"]:
                errors.append(f"{workload} {metric['name']}: printed unit "
                              f"{unit!r}, expected {metric['unit']!r}")
        spans = out_dir / f"spans.{workload}.json"
        if not spans.is_file() or "traceEvents" not in json.loads(
                spans.read_text()):
            errors.append(f"{workload}: no span file {spans}")

    suite_json = out_dir / "suite.json"
    results = (json.loads(suite_json.read_text())["workloads"]
               if suite_json.is_file() else {})
    for workload in workloads:
        result = results.get(workload)
        if result is None:
            errors.append(f"{workload}: missing from {suite_json}")
        elif not result["correct"] or result["failed"] != 0:
            errors.append(f"{workload}: correct={result['correct']} "
                          f"failed={result['failed']}")

    for error in errors:
        print("FAIL:", error)
    print(f"checked {len(workloads)} workloads, "
          f"{len(spec['end_to_end']) + len(spec['per_layer'])} metrics each")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
