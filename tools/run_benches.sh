#!/bin/sh
# Runs every bench binary, headline figures first, capturing combined output
# and collecting each binary's BENCH_<name>.json report into one directory.
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

ordered="bench_table1_overhead_scope bench_fig5_overhead bench_fig6_quality bench_dyn_resilience bench_fig7_9_scionlab bench_micro bench_ablation_scoring bench_ablation_sweeps bench_ext_latency"
for name in $ordered; do
  b="$build_dir/bench/$name"
  if [ -x "$b" ] && [ -f "$b" ]; then
    run_bench "$b"
  fi
done
# Catch any bench not in the explicit list.
for b in "$build_dir"/bench/*; do
  case " $ordered " in
    *" $(basename "$b") "*) continue ;;
  esac
  if [ -x "$b" ] && [ -f "$b" ]; then
    run_bench "$b"
  fi
done
echo "bench suite complete: $out (reports in $json_dir/)"

if [ -n "$baseline_dir" ]; then
  "$build_dir/tools/bench_diff" "--baseline=$baseline_dir" \
    "--current=$json_dir" "--report-out=$json_dir/bench_diff.txt" || {
    echo "bench suite regressed vs baseline $baseline_dir (see $json_dir/bench_diff.txt)" >&2
    exit 1
  }
fi
