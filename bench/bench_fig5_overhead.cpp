// Fig. 5: monthly control-plane overhead relative to BGP (CDF over monitor
// ASes) for BGPsec, SCION core beaconing (baseline + diversity-based), and
// SCION intra-ISD beaconing; plus the Section 5.2 per-path overhead
// numbers. Expected shape: BGPsec ~ one order of magnitude above BGP, core
// baseline at or above BGPsec, core diversity ~ one order of magnitude
// below BGP, intra-ISD ~ two orders below BGP.
#include <optional>

#include "bench/bench_common.hpp"
#include "experiments/overhead_experiment.hpp"

namespace scion::exp {
namespace {

// Experiment result captured for the report writer; the bench harness runs
// experiments sequentially on the main thread. simlint:allow(mutable-global)
std::optional<OverheadResult> g_result;

void BM_Fig5Overhead(benchmark::State& state) {
  const Scale scale = bench_scale();
  for (auto _ : state) {
    g_result = run_overhead_experiment(scale);
  }
  // Guard every counter on its own CDF: median() on an empty CDF trips
  // SCION_CHECK, and tiny --scale runs can leave any of these empty.
  if (g_result && !g_result->core_diversity_rel.empty()) {
    state.counters["diversity_rel_median"] =
        g_result->core_diversity_rel.median();
  }
  if (g_result && !g_result->core_baseline_rel.empty()) {
    state.counters["baseline_rel_median"] =
        g_result->core_baseline_rel.median();
  }
  if (g_result && !g_result->bgpsec_rel.empty()) {
    state.counters["bgpsec_rel_median"] = g_result->bgpsec_rel.median();
  }
}
BENCHMARK(BM_Fig5Overhead)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  using scion::exp::g_result;
  return scion::exp::bench_main(
      "fig5_overhead", argc, argv,
      [] {
        if (g_result) scion::exp::print_overhead_result(*g_result);
      },
      [](scion::exp::BenchReport& report) {
        if (!g_result) return;
        report.cdf("bgpsec_rel", g_result->bgpsec_rel, 8);
        report.cdf("core_baseline_rel", g_result->core_baseline_rel, 8);
        report.cdf("core_diversity_rel", g_result->core_diversity_rel, 8);
        report.cdf("intra_rel", g_result->intra_rel, 8);
        report.scalar("per_path_bgp", g_result->per_path_bgp);
        report.scalar("per_path_bgpsec", g_result->per_path_bgpsec);
        report.scalar("per_path_core_baseline",
                      g_result->per_path_core_baseline);
        report.scalar("per_path_core_diversity",
                      g_result->per_path_core_diversity);
        report.scalar("diversity_paths_per_origin",
                      g_result->diversity_paths_per_origin);
      });
}
