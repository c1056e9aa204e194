// Fig. 6a: minimum number of failing links disconnecting two core ASes —
// optimum vs SCION diversity (storage 15/30/60/inf) vs SCION baseline (60)
// vs BGP multipath, grouped by the pair's optimum. Expected shape: baseline
// clearly above BGP (more than doubled for small optima), diversity close
// to the optimum.
#include "bench/bench_common.hpp"
#include "experiments/quality_experiment.hpp"

namespace scion::exp {
namespace {

void run(const util::Flags&, const Scale& scale, BenchReport& report) {
  const topo::Topology internet = build_internet(scale);
  const CoreNetworks nets = build_core_networks(scale, internet);
  QualityConfig config;
  config.diversity_storage_limits = {15, 30, 60, 0};
  config.baseline_storage_limits = {60};
  config.include_bgp = true;
  config.sampled_pairs = scale.sampled_pairs;
  config.sim_duration = scale.quality_duration;
  config.seed = scale.seed;
  const QualityResult result =
      run_quality_experiment(nets.bgp_view, nets.scion_view, config);

  obs::print_line("\nFig. 6a — link failure resilience (core network)");
  print_resilience(result, 15);
  report.table(resilience_table(result, 15));
  for (const QualitySeries& s : result.series) {
    report.scalar("opt_frac:" + s.name, result.fraction_of_optimal(s));
  }
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("fig6a_resilience", argc, argv,
                                scion::exp::run);
}
