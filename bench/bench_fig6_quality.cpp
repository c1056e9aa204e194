// Figs. 6a and 6b (core network), from one quality run: optimum vs SCION
// diversity (storage 15/30/60/inf) vs SCION baseline (60) vs BGP multipath.
//  - Fig. 6a: minimum number of failing links disconnecting two core ASes,
//    grouped by the pair's optimum. Expected shape: baseline clearly above
//    BGP (more than doubled for small optima), diversity close to the
//    optimum.
//  - Fig. 6b: maximum capacity between core AS pairs in multiples of
//    inter-AS link capacity (CDF). Expected shape: BGP lowest, baseline in
//    between, diversity close to optimal until the storage limit binds
//    (paper: ~99/97/95/82 % of optimal capacity across the storage limits).
#include "bench/bench_common.hpp"
#include "experiments/quality_experiment.hpp"

namespace scion::exp {
namespace {

void run(const util::Flags&, const Scale& scale, BenchReport& report) {
  const topo::Topology internet = build_internet(scale);
  const CoreNetworks nets = build_core_networks(scale, internet);
  QualityConfig config;
  config.sampled_pairs = scale.sampled_pairs;
  config.sim_duration = scale.quality_duration;
  config.seed = scale.seed;
  const QualityResult result =
      run_quality_experiment(nets.bgp_view, nets.scion_view, config);

  obs::print_line("\nFig. 6a — link failure resilience (core network)");
  print_resilience(result, 15);
  obs::print_line("\nFig. 6b — maximum capacity (core network)");
  print_capacity(result);
  report.table(resilience_table(result, 15));
  report.table(capacity_table(result));
  for (const QualitySeries& s : result.series) {
    report.scalar("opt_frac:" + s.name, result.fraction_of_optimal(s));
  }
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("fig6_quality", argc, argv, scion::exp::run);
}
