#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark (see METRICS.md).

    python3 e2ebench/run.py --workload cold_miss --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The benchmark is built from source into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); build output
goes to stderr so the last stdout line stays the result JSON. With
--workload all the three workloads run one after another and the last line
combines them, each metric prefixed with its workload's name. Exits non-zero
without a result line when the sources or the build are missing.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

WORKLOADS = ["cold_miss", "hot_repeat", "update_stream"]
RUN_TIMEOUT_S = 170


def build(bench_dir, build_dir):
    if not (bench_dir.parent / "src").is_dir():
        print("e2ebench: library sources (src/) not found", file=sys.stderr)
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "tkc_e2ebench",
         "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            print("e2ebench: build failed", file=sys.stderr)
            return None
    return build_dir / "tkc_e2ebench"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bench_dir = pathlib.Path(__file__).resolve().parent
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = pathlib.Path(build_root).resolve() / "e2ebench"
    binary = build(bench_dir, build_dir)
    if binary is None:
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads:
        trace_out = build_dir / f"trace_{workload}_{args.seed}.jsonl"
        cmd = [str(binary), f"--workload={workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--trace-out={trace_out}"]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"e2ebench: {workload} ran past {RUN_TIMEOUT_S}s",
                  file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stdout, file=sys.stderr)  # no result line: diagnostics
            return proc.returncode or 1
        if len(workloads) > 1:
            print(f"== {workload}")
        print("\n".join(lines if len(workloads) == 1 else lines[:-1]))
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    if len(workloads) > 1:
        print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
