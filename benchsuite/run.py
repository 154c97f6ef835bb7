#!/usr/bin/env python3
"""Build bench_suite from this checkout's sources and run one workload.

    python3 benchsuite/run.py --workload mixes --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; an up-to-date build costs one `cmake --build` no-op. The
workload's metric lines are passed through, and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"},
where metrics are BENCHMARK.json's end_to_end metrics with --trace 0 and
its per_layer metrics with --trace 1. Exits non-zero, printing no result,
when the sources are missing, the build fails, or bench_suite errors out.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mixes", "gc_steady", "pipeline", "fleet")
# Well inside the 180 s a run may take; a hung run is killed and reaped.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "bench_suite", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "bench_suite"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = build_dir / f"result-{stem}.json"
    result_path.unlink(missing_ok=True)
    command = [str(binary), f"workload={args.workload}", f"seed={args.seed}",
               f"seconds={args.seconds}", f"traced={args.trace}",
               f"json={result_path}"]
    if args.trace:
        command.append(f"trace_out={build_dir / f'spans-{stem}.json'}")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=build_dir)
    except subprocess.TimeoutExpired:
        fail(f"bench_suite exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    # 0 = every oracle passed, 1 = an oracle failed (still a result).
    if proc.returncode not in (0, 1) or not result_path.is_file():
        fail(f"bench_suite exited with {proc.returncode}")

    result = json.loads(result_path.read_text())
    metrics = {}
    for entry in wanted:
        measured = result["metrics"].get(entry["name"])
        if measured is None or measured["unit"] != entry["unit"]:
            fail(f"bench_suite did not report {entry['name']} "
                 f"in {entry['unit']}")
        metrics[entry["name"]] = {"value": measured["value"],
                                  "unit": measured["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
