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
# scoring ablation, the latency extension, and the Table 1,
# dynamic-resilience and churn-response reports of the obs, fault and churn
# smoke fixtures. It
# builds the performance benchmark (perfbench/, Release) and checks its
# outputs against perfbench/references.json. Last, with any preset but
# tsan (whose suite already runs under ThreadSanitizer), it builds the
# parallel tests and smokes in the tsan tree and runs them: ThreadSanitizer
# is the race gate on every run.
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
# Determinism, layering and shared-state lint over the simulator sources,
# benches, and tools (the same command as the simlint ctest above). Per-event
# cost is not linted: the allocation-budget tests in the ctest run gate it.
"$build_dir/tools/simlint" src bench tools

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
# series and tables, counters, gauges, histograms, phase calls, per-label
# event counts) gate exactly; allocs gate with a +25% band; wall time only
# warns; any unattributed event fails. The baseline is preset-independent
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

# The three smoke reports the ctest fixtures above wrote: Table 1 from the
# telemetry smoke (obs_smoke_bench, the full control-plane simulation), the
# dynamic-resilience run from the fault smoke (fault_smoke_bench), and the
# five-series churn-response run from the churn smoke (churn_smoke_bench;
# churn_smoke_check validated its artifacts). Their baselines were recorded
# with the fixtures' own command lines, trace flags included, so allocation
# counts compare like for like. The churn fixture runs its five series at
# --jobs=4, so its exact diff against the serial baseline doubles as the
# proof that the parallel run's deterministic fields match (the tsan leg at
# the end repeats it under ThreadSanitizer).
for smoke in obs_smoke:table1_overhead_scope fault_smoke:dyn_resilience \
             churn_smoke:churn_response; do
  dir="$build_dir/${smoke%%:*}"
  "$build_dir/tools/bench_diff" \
    --baseline="tools/bench_baseline/BENCH_${smoke#*:}.json" \
    --current="$dir/bench.json" --report-out="$dir/bench_diff.txt"
done

# Parallel-execution smoke: the Fig. 6 quality bench with --jobs=4 (its six
# series as one exec::parallel_map batch). It proves the parallel path
# produces schema-valid artifacts; the fig6_same_across_jobs ctest compares
# it with --jobs=1, and the tsan leg at the end runs it under
# ThreadSanitizer.
par_dir="$build_dir/par_ci"
mkdir -p "$par_dir"
"$build_dir/bench/bench_fig6_quality" --scale=0.2 --pairs=40 \
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

# Publish the profiling artifacts: every smoke BENCH report, the Chrome
# trace (load it at chrome://tracing or ui.perfetto.dev), and the bench_diff
# verdict tables.
artifact_dir="$build_dir/artifacts"
mkdir -p "$artifact_dir"
cp "$obs_dir/BENCH_fig5_overhead.json" \
   "$obs_dir/chrome_trace.json" \
   "$obs_dir/bench_diff.txt" "$artifact_dir/"
# The fault-injection and churn smokes ran as ctest fixtures.
cp "$build_dir/fault_smoke/bench.json" \
   "$artifact_dir/BENCH_dyn_resilience_smoke.json"
cp "$build_dir/fault_smoke/bench_diff.txt" \
   "$artifact_dir/dyn_resilience_bench_diff.txt"
cp "$build_dir/churn_smoke/bench.json" \
   "$artifact_dir/BENCH_churn_response.json"
cp "$build_dir/churn_smoke/bench_diff.txt" \
   "$artifact_dir/churn_bench_diff.txt"
cp "$build_dir/obs_smoke/bench_diff.txt" \
   "$artifact_dir/table1_overhead_scope_bench_diff.txt"
cp "$par_dir/bench.json" "$artifact_dir/BENCH_fig6_quality_smoke.json"
cp "$div_dir/BENCH_ablation_scoring.json" "$div_dir/BENCH_ext_latency.json" \
   "$div_dir/ablation_scoring_bench_diff.txt" \
   "$div_dir/ext_latency_bench_diff.txt" "$artifact_dir/"
echo "ci: artifacts: $artifact_dir/BENCH_fig5_overhead.json $artifact_dir/chrome_trace.json $artifact_dir/bench_diff.txt"

# Race gate: ThreadSanitizer over everything that runs threads. The tsan
# preset ran the whole suite under it above; any other preset builds only
# the parallel tests, the two --jobs=4 smokes and bench_diff in the tsan
# tree (about 2 min on 4 cores from clean) and runs them. A binary with a
# ThreadSanitizer report exits 66, so a data race fails the script here.
if [ "$preset" != "tsan" ]; then
  tsan_dir="build-tsan"
  cmake --preset tsan
  cmake --build --preset tsan -j "$(nproc)" --target test_task_pool \
    test_determinism test_obs bench_churn_response bench_fig6_quality \
    bench_diff
  for test in test_task_pool test_determinism test_obs; do
    "$tsan_dir/tests/$test" --gtest_brief=1
  done
  tsan_ci="$tsan_dir/tsan_ci"
  mkdir -p "$tsan_ci"
  "$tsan_dir/bench/bench_churn_response" \
    --core-isds=3 --core-ases=12 --internet-ases=200 \
    --churn-minutes=60 --probe-interval-s=30 --jobs=4 \
    --faults=examples/churn.faults \
    --metrics-out="$tsan_ci/metrics.json" \
    --trace-out="$tsan_ci/trace.jsonl" \
    --trace-filter=fault \
    --bench-out="$tsan_ci/BENCH_churn_response.json" > "$tsan_ci/churn.txt"
  "$tsan_dir/tools/bench_diff" \
    --baseline=tools/bench_baseline/BENCH_churn_response.json \
    --current="$tsan_ci/BENCH_churn_response.json" \
    --report-out="$tsan_ci/churn_bench_diff.txt"
  "$tsan_dir/bench/bench_fig6_quality" --scale=0.2 --pairs=40 --jobs=4 \
    --bench-out="$tsan_ci/BENCH_fig6_quality.json" > "$tsan_ci/fig6.txt"
fi

echo "ci: $preset build, tests, simlint (determinism + layering + shared state), fault and churn smokes, parallel smoke, bench regression gates (fig5, diversity ablation, latency extension, Table 1, dynamic-resilience and churn smokes), perfbench build + output check, ThreadSanitizer race gate, and telemetry artifacts all green"
