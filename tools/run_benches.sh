#!/bin/sh
# Runs the nine bench binaries, headline figures first, capturing combined
# output and collecting each binary's BENCH_<name>.json report into one
# directory.
# Usage: tools/run_benches.sh [--checked] [--jobs=N] [--baseline=DIR]
#                             [output-file] [json-dir]
#
# --baseline=DIR diffs the collected reports against a directory of
# baseline BENCH_*.json files with tools/bench_diff after the suite
# completes (report written next to the json output); the script then
# exits non-zero on any deterministic regression.
#
# --checked runs the binaries from the build-checked tree (CMake preset
# `checked`, SCION_MPR_CHECKED=ON) so every SCION_CHECK/SCION_DCHECK
# invariant is live during the benchmark workloads — slower, but a full
# soak of the hot-path assertions over realistic inputs.
#
# --jobs=N passes a worker-thread count through to every bench; results
# are byte-identical for any N (the exec layer's determinism contract),
# and the value is recorded in each BENCH json manifest.
build_dir="build"
jobs_flag=""
baseline_dir=""
while :; do
  case "${1:-}" in
    --checked)
      build_dir="build-checked"
      shift
      if [ ! -d "$build_dir/bench" ]; then
        echo "error: $build_dir not built; run: cmake --preset checked && cmake --build --preset checked" >&2
        exit 1
      fi
      ;;
    --jobs=*)
      jobs_flag="$1"
      shift
      ;;
    --baseline=*)
      baseline_dir="${1#--baseline=}"
      shift
      ;;
    *) break ;;
  esac
done
out="${1:-bench_output.txt}"
json_dir="${2:-bench_out}"
mkdir -p "$json_dir"
: > "$out"

run_bench() {
  b="$1"
  name="$(basename "$b")"
  echo "=== $b ===" >> "$out"
  # $jobs_flag is intentionally unquoted: empty means "no extra flag".
  "$b" "--bench-out=$json_dir/BENCH_${name#bench_}.json" $jobs_flag >> "$out" 2>&1
  echo >> "$out"
}

# The suite: every bench target in bench/CMakeLists.txt, headline figures
# first. A binary in the build tree that is not listed (a stale one left by
# a deleted target) never runs, and a listed one that is missing fails the
# script before anything runs.
suite="bench_table1_overhead_scope bench_fig5_overhead bench_fig6_quality bench_dyn_resilience bench_churn_response bench_fig7_9_scionlab bench_ablation_scoring bench_ablation_sweeps bench_ext_latency"
for name in $suite; do
  if [ ! -x "$build_dir/bench/$name" ]; then
    echo "error: $build_dir/bench/$name not built" >&2
    exit 1
  fi
done
for name in $suite; do
  run_bench "$build_dir/bench/$name"
done
echo "bench suite complete: $out (reports in $json_dir/)"

if [ -n "$baseline_dir" ]; then
  "$build_dir/tools/bench_diff" "--baseline=$baseline_dir" \
    "--current=$json_dir" "--report-out=$json_dir/bench_diff.txt" || {
    echo "bench suite regressed vs baseline $baseline_dir (see $json_dir/bench_diff.txt)" >&2
    exit 1
  }
fi
