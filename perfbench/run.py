#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds the
benchmark (the repository's `grasp` library plus perfbench/src) in Release
mode under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later calls rebuild only what changed.  The benchmark's
per-rep lines are passed through, and its result object is printed as the
last line.  A failed build or run exits non-zero without printing a result.
With --trace 1 the traced reps' spans are also written to
<build dir>/spans-<workload>-<seed>.jsonl.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("jobstream", "hier_scale", "farm_churn")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict) and set(result) == RESULT_KEYS
            and isinstance(result["metrics"], dict) and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: run failed: {err}", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(run.stdout)
        print(f"perfbench: run exited {run.returncode} without a valid result",
              file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
