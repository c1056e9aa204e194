// Fig. 5: monthly control-plane overhead relative to BGP (CDF over monitor
// ASes) for BGPsec, SCION core beaconing (baseline + diversity-based), and
// SCION intra-ISD beaconing; plus the Section 5.2 per-path overhead
// numbers. Expected shape: BGPsec ~ one order of magnitude above BGP, core
// baseline at or above BGPsec, core diversity ~ one order of magnitude
// below BGP, intra-ISD ~ two orders below BGP.
#include "bench/bench_common.hpp"
#include "experiments/overhead_experiment.hpp"

namespace scion::exp {
namespace {

void run(const util::Flags&, const Scale& scale, BenchReport& report) {
  const OverheadResult result = run_overhead_experiment(scale);
  print_overhead_result(result);
  report.cdf("bgpsec_rel", result.bgpsec_rel, 8);
  report.cdf("core_baseline_rel", result.core_baseline_rel, 8);
  report.cdf("core_diversity_rel", result.core_diversity_rel, 8);
  report.cdf("intra_rel", result.intra_rel, 8);
  report.scalar("per_path_bgp", result.per_path_bgp);
  report.scalar("per_path_bgpsec", result.per_path_bgpsec);
  report.scalar("per_path_core_baseline", result.per_path_core_baseline);
  report.scalar("per_path_core_diversity", result.per_path_core_diversity);
  report.scalar("diversity_paths_per_origin",
                result.diversity_paths_per_origin);
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("fig5_overhead", argc, argv,
                                scion::exp::run);
}
