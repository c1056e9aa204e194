#!/usr/bin/env python3
"""Builds bench_perf from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload core_baseline --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset, as
an optimized (Release) build; an up-to-date tree rebuilds in about a second.
Build output goes to stderr, so the last line of stdout is bench_perf's
result object. The exit status is bench_perf's, or 1 when the build fails.
"""
import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs, "--target", "bench_perf"],
    ):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    command = [
        os.path.join(build, "bench_perf"),
        "--workload=" + args.workload,
        "--seed=%d" % args.seed,
        "--seconds=%g" % args.seconds,
        "--trace=%d" % args.trace,
        "--summary-out=" + os.path.join(build, "BENCH_perf_summary.json"),
    ]
    if args.trace:
        command.append("--chrome-trace-out=" + os.path.join(build, "trace_"))
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
