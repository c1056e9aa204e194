#!/bin/sh
# CI gate: configure and build the asan-ubsan preset (ASan + UBSan,
# SCION_MPR_CHECKED=ON, -Werror), run the full test suite under the
# sanitizers, and lint the simulator sources with simlint. Any sanitizer
# report, failed test, warning, or determinism hazard fails the script.
#
# The test suite includes the telemetry smoke gate (obs_smoke_bench +
# obs_smoke_check fixtures): one small bench runs with --metrics-out,
# --trace-out, --trace-filter, and --bench-out, and tools/obs_check
# validates the emitted artifacts against their schemas. As a second,
# independent check this script runs a telemetry-instrumented
# bench_fig5_overhead (the acceptance figure), validates its artifacts, and
# diffs its BENCH report against the checked-in baseline with
# tools/bench_diff (deterministic fields gate exactly; see
# tools/bench_baseline/README.md), and does the same for the diversity
# scoring ablation, the latency extension, and the Table 1 and
# dynamic-resilience reports of the obs and fault smoke fixtures. Last, it
# builds the performance benchmark (perfbench/, Release) and checks its
# outputs against perfbench/references.json.
#
# Usage: ./ci.sh [preset]   (default: asan-ubsan; try `tsan` or `checked`)
set -eu

preset="${1:-asan-ubsan}"

# Telemetry and the counting allocator are part of every build; there is
# no switch to compile them out. perfbench/CMakeLists.txt still defines
# SCION_MPR_OBS_ENABLED and SCION_MPR_ALLOC_TRACK, so an #ifdef on either
# would compile differently in the benchmark than in the tests, and a stale
# one in the main build would silently compile code out.
if grep -rnE 'SCION_MPR_(OBS|ALLOC_TRACK)' \
     --include='*.cpp' --include='*.hpp' --include=CMakeLists.txt \
     --include=CMakePresets.json \
     src tests tools bench examples CMakeLists.txt CMakePresets.json; then
  echo "ci: ERROR: a removed telemetry build switch is referenced above" >&2
  exit 1
fi

cmake --preset "$preset"
cmake --build --preset "$preset" -j "$(nproc)"
ctest --preset "$preset"

case "$preset" in
  asan-ubsan) build_dir="build-asan" ;;
  tsan) build_dir="build-tsan" ;;
  checked) build_dir="build-checked" ;;
  *) build_dir="build" ;;
esac
# Determinism + architecture lint: simulator sources, benches, and tools.
# The observed module include graph lands in $build_dir/include_graph.dot
# (deterministic DOT) for review against DESIGN.md's dependency table. The
# shared-state inventory (mutable-global / unguarded-shared /
# guarded-member counts) is diffed against tools/state_baseline.json: any
# per-(file, rule) count increase fails here until the baseline is updated
# deliberately, and a failure names the offending (file, rule) pair. See
# DESIGN.md "Concurrency discipline" for the regeneration recipe. Per-event
# cost is not linted: the allocation-budget tests in the ctest run above
# gate it.
"$build_dir/tools/simlint" --dot="$build_dir/include_graph.dot" \
  --state-report="$build_dir/state_report.json" \
  --state-baseline=tools/state_baseline.json \
  src bench tools

# Both lint artifacts are published for review: the include graph for
# DESIGN.md's dependency table and the shared-state inventory for
# concurrency review.
artifact_dir="$build_dir/artifacts"
mkdir -p "$artifact_dir"
cp "$build_dir/include_graph.dot" "$build_dir/state_report.json" \
   "$artifact_dir/"
echo "ci: artifacts: $artifact_dir/include_graph.dot $artifact_dir/state_report.json"

# clang-tidy gate (check set pinned by .clang-tidy at the repo root, run
# against the compile database the configure step exports). The binary is
# pinned: CLANG_TIDY overrides, else the first pinned versioned name found
# wins, so an unpinned distro default cannot drift the check set. A runner
# without any of them fails hard — losing the gate must be explicit, via
# CI_ALLOW_MISSING_CLANG_TIDY=1 (used by minimal images that bake only the
# compiler toolchain; every run prints which path was taken).
clang_tidy="${CLANG_TIDY:-}"
if [ -z "$clang_tidy" ]; then
  for candidate in clang-tidy-19 clang-tidy-18 clang-tidy-17 clang-tidy; do
    if command -v "$candidate" >/dev/null 2>&1; then
      clang_tidy="$candidate"
      break
    fi
  done
fi
if [ -n "$clang_tidy" ]; then
  echo "ci: clang-tidy gate using $clang_tidy ($("$clang_tidy" --version | head -n 1))"
  find src -name '*.cpp' | sort | \
    xargs "$clang_tidy" -p "$build_dir" --quiet --warnings-as-errors='*'
elif [ "${CI_ALLOW_MISSING_CLANG_TIDY:-0}" = "1" ]; then
  echo "ci: WARNING: clang-tidy not found; gate skipped because CI_ALLOW_MISSING_CLANG_TIDY=1" >&2
else
  echo "ci: ERROR: no clang-tidy on PATH (tried CLANG_TIDY, clang-tidy-19/-18/-17, clang-tidy)." >&2
  echo "ci: install one, set CLANG_TIDY=/path/to/clang-tidy, or opt out explicitly with CI_ALLOW_MISSING_CLANG_TIDY=1" >&2
  exit 1
fi

obs_dir="$build_dir/obs_ci"
mkdir -p "$obs_dir"
# --scale keeps the sanitizer-instrumented run (and its trace) small; the
# schema checks are scale-independent.
"$build_dir/bench/bench_fig5_overhead" --scale=0.2 --churn-minutes=120 \
  --metrics-out="$obs_dir/metrics.json" \
  --trace-out="$obs_dir/trace.jsonl" \
  --trace-filter=bgp,beacon \
  --chrome-trace-out="$obs_dir/chrome_trace.json" \
  --bench-out="$obs_dir/BENCH_fig5_overhead.json" > "$obs_dir/stdout.txt"
"$build_dir/tools/obs_check" \
  --metrics="$obs_dir/metrics.json" \
  --trace="$obs_dir/trace.jsonl" --expect-cat=bgp,beacon \
  --chrome-trace="$obs_dir/chrome_trace.json" \
  --bench="$obs_dir/BENCH_fig5_overhead.json"

# Bench regression gate: diff the smoke report against the checked-in
# baseline (tools/bench_baseline/). Deterministic fields (figure scalars,
# counters, phase calls, per-label event counts) gate exactly; allocs gate
# with a +25% band; wall time only warns; any unattributed event fails. The baseline is preset-independent
# — the deterministic fields are byte-identical across release/checked/
# asan-ubsan/tsan — so this runs under whichever preset was selected.
"$build_dir/tools/bench_diff" \
  --baseline=tools/bench_baseline/BENCH_fig5_overhead.json \
  --current="$obs_dir/BENCH_fig5_overhead.json" \
  --report-out="$obs_dir/bench_diff.txt"

# Diversity corners the fig5 gate does not reach: fig5 runs the diversity
# algorithm at default parameters only, so the scoring ablation (alpha=0,
# beta=gamma=0, decrement-on-expiry, AS-disjoint counters) and the latency
# extension each run once and are diffed against their checked-in
# baselines the same way.
div_dir="$build_dir/diversity_ci"
mkdir -p "$div_dir"
for bench in ablation_scoring ext_latency; do
  "$build_dir/bench/bench_$bench" --scale=0.2 \
    --bench-out="$div_dir/BENCH_$bench.json" > "$div_dir/$bench.txt"
  "$build_dir/tools/bench_diff" \
    --baseline="tools/bench_baseline/BENCH_$bench.json" \
    --current="$div_dir/BENCH_$bench.json" \
    --report-out="$div_dir/${bench}_bench_diff.txt"
done

# The two smoke reports the ctest fixtures above wrote: Table 1 from the
# telemetry smoke (obs_smoke_bench, the full control-plane simulation) and
# the dynamic-resilience run from the fault smoke (fault_smoke_bench).
# Their baselines were recorded with the fixtures' own command lines, trace
# flags included, so allocation counts compare like for like.
"$build_dir/tools/bench_diff" \
  --baseline=tools/bench_baseline/BENCH_table1_overhead_scope.json \
  --current="$build_dir/obs_smoke/bench.json" \
  --report-out="$build_dir/obs_smoke/bench_diff.txt"
"$build_dir/tools/bench_diff" \
  --baseline=tools/bench_baseline/BENCH_dyn_resilience.json \
  --current="$build_dir/fault_smoke/bench.json" \
  --report-out="$build_dir/fault_smoke/bench_diff.txt"

# Churn-survival smoke: the five-series churn-response bench (plain BGP,
# damping, graceful restart, SCION baseline, SCION robust) under the
# example sustained-churn scenario, validated and then diffed against the
# checked-in baseline so availability/amplification and the survival
# counters (suppressed, stale-retained, quarantined, re-originated) cannot
# drift silently. The 60-minute window is load-bearing: the example's burst
# storm and session restarts start at 15m+. --jobs=4 runs the five series
# on the TaskPool: under the tsan preset this race-gates the PR 8 survival
# bookkeeping, and the exact bench_diff below doubles as the proof that the
# parallel run's deterministic fields match the serial baseline.
churn_dir="$build_dir/churn_ci"
mkdir -p "$churn_dir"
"$build_dir/bench/bench_churn_response" \
  --core-isds=3 --core-ases=12 --internet-ases=200 \
  --churn-minutes=60 --probe-interval-s=30 --jobs=4 \
  --faults=examples/churn.faults \
  --metrics-out="$churn_dir/metrics.json" \
  --trace-out="$churn_dir/trace.jsonl" \
  --trace-filter=fault \
  --bench-out="$churn_dir/BENCH_churn_response.json" > "$churn_dir/stdout.txt"
"$build_dir/tools/obs_check" \
  --metrics="$churn_dir/metrics.json" \
  --trace="$churn_dir/trace.jsonl" --expect-cat=fault \
  --bench="$churn_dir/BENCH_churn_response.json"
"$build_dir/tools/bench_diff" \
  --baseline=tools/bench_baseline/BENCH_churn_response.json \
  --current="$churn_dir/BENCH_churn_response.json" \
  --report-out="$churn_dir/bench_diff.txt"

# Parallel-execution smoke: a quality bench on the exec::TaskPool with
# --jobs=4. Under the tsan preset this is the data-race gate for the
# worker pool and the sharded telemetry merge; under the other presets it
# still proves the parallel path produces schema-valid artifacts.
par_dir="$build_dir/par_ci"
mkdir -p "$par_dir"
"$build_dir/bench/bench_fig6b_capacity" --scale=0.2 --pairs=40 \
  --jobs=4 \
  --metrics-out="$par_dir/metrics.json" \
  --trace-out="$par_dir/trace.jsonl" \
  --trace-filter=beacon,bgp \
  --bench-out="$par_dir/bench.json" > "$par_dir/stdout.txt"
"$build_dir/tools/obs_check" \
  --metrics="$par_dir/metrics.json" \
  --trace="$par_dir/trace.jsonl" --expect-cat=beacon,bgp \
  --bench="$par_dir/bench.json"

# Performance benchmark: perfbench/ is its own CMake project, built here in
# its own Release tree whatever the preset. perf_smoke (its ctest) runs
# every workload at smoke size; the bench_perf run checks each workload's
# deterministic fingerprint against perfbench/references.json and exits 1
# on a mismatch. So a src/ API change that breaks bench_perf, or a change
# in the simulated outputs, fails CI and not only the benchmark pipeline.
perf_dir="build-perfbench"
cmake -S perfbench -B "$perf_dir" -DCMAKE_BUILD_TYPE=Release
cmake --build "$perf_dir" -j "$(nproc)" --target bench_perf
ctest --test-dir "$perf_dir" --output-on-failure
"$perf_dir/bench_perf" --seed=1 --reps=1 --trace=0 \
  --summary-out="$perf_dir/BENCH_perf_summary.json"

# Publish the profiling artifacts next to the lint ones: every smoke BENCH
# report, the Chrome trace (load it at chrome://tracing or ui.perfetto.dev),
# and the bench_diff verdict table.
cp "$obs_dir/BENCH_fig5_overhead.json" \
   "$obs_dir/chrome_trace.json" \
   "$obs_dir/bench_diff.txt" "$artifact_dir/"
# The fault-injection smoke ran as the fault_smoke_bench ctest fixture.
cp "$build_dir/fault_smoke/bench.json" \
   "$artifact_dir/BENCH_dyn_resilience_smoke.json"
cp "$build_dir/fault_smoke/bench_diff.txt" \
   "$artifact_dir/dyn_resilience_bench_diff.txt"
cp "$build_dir/obs_smoke/bench_diff.txt" \
   "$artifact_dir/table1_overhead_scope_bench_diff.txt"
cp "$churn_dir/BENCH_churn_response.json" "$artifact_dir/"
cp "$churn_dir/bench_diff.txt" "$artifact_dir/churn_bench_diff.txt"
cp "$par_dir/bench.json" "$artifact_dir/BENCH_fig6b_capacity_smoke.json"
cp "$div_dir/BENCH_ablation_scoring.json" "$div_dir/BENCH_ext_latency.json" \
   "$div_dir/ablation_scoring_bench_diff.txt" \
   "$div_dir/ext_latency_bench_diff.txt" "$artifact_dir/"
echo "ci: artifacts: $artifact_dir/BENCH_fig5_overhead.json $artifact_dir/chrome_trace.json $artifact_dir/bench_diff.txt"

echo "ci: $preset build, tests, simlint (determinism + layering + shared state), fault smoke, churn smoke + regression gate, parallel smoke, bench regression gates (fig5, diversity ablation, latency extension, Table 1 smoke, dynamic-resilience smoke), perfbench build + output check, and telemetry artifacts all green"
