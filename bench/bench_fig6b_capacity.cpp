// Fig. 6b: maximum capacity between core AS pairs in multiples of inter-AS
// link capacity (CDF). Expected shape: BGP lowest, baseline in between,
// diversity close to optimal until the storage limit binds (paper: ~99/97/
// 95/82 % of optimal capacity across the storage limits).
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

  obs::print_line("\nFig. 6b — maximum capacity (core network)");
  print_capacity(result);
  report.table(capacity_table(result));
  for (const QualitySeries& s : result.series) {
    report.scalar("opt_frac:" + s.name, result.fraction_of_optimal(s));
  }
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("fig6b_capacity", argc, argv,
                                scion::exp::run);
}
