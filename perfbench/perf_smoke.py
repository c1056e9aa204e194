#!/usr/bin/env python3
"""perf_smoke: bench_perf --smoke passes twice with identical fingerprints.
Every workload reports every end-to-end metric that BENCHMARK.json declares,
and every declared per-layer metric is reported by the workloads that
exercise its layer (at least one), in the declared unit.

Usage: perf_smoke.py BENCH_PERF_BINARY BENCHMARK_JSON   (the ctest runs it)
"""
import json
import subprocess
import sys


def smoke_run(binary, summary):
    result = subprocess.run([binary, "--smoke", "--summary-out=" + summary])
    if result.returncode != 0:
        sys.exit("perf_smoke: bench_perf --smoke exited %d" % result.returncode)
    with open(summary) as f:
        return json.load(f)["workloads"]


def main():
    binary, manifest = sys.argv[1:3]
    with open(manifest) as f:
        bench = json.load(f)
    first = smoke_run(binary, "perf_smoke_1.json")
    second = smoke_run(binary, "perf_smoke_2.json")
    problems = []
    reported = {}
    for workload in bench["workloads"]:
        name = workload["name"]
        if name not in first:
            problems.append("workload %s did not run" % name)
            continue
        for metric in bench["end_to_end"]:
            if metric["name"] not in first[name]["end_to_end"]:
                problems.append("%s: no %s" % (name, metric["name"]))
        for section in ("end_to_end", "per_layer"):
            for metric, got in first[name][section].items():
                reported.setdefault(metric, set()).add(got["unit"])
        if first[name]["fingerprint"] != second[name]["fingerprint"]:
            problems.append("%s: fingerprints differ between two runs" % name)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        units = reported.get(metric["name"])
        if units is None:
            problems.append("no workload reports %s" % metric["name"])
        elif units != {metric["unit"]}:
            problems.append("%s in %s, declared %s" % (
                metric["name"], "/".join(sorted(units)), metric["unit"]))
    for problem in problems:
        print("perf_smoke: " + problem, file=sys.stderr)
    if problems:
        sys.exit(1)
    print("perf_smoke: %d workloads ok" % len(bench["workloads"]))


if __name__ == "__main__":
    main()
