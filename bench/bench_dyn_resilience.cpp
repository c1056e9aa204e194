// Dynamic resilience under churn: SCION baseline vs. SCION diversity vs.
// BGP recovering end-to-end connectivity through the *same* fault scenario
// (link flaps by default; any scenario via --faults=FILE). Reports per-
// algorithm recovery-time distributions and availability. Expected shape:
// the diversity algorithm's path sets survive more faults outright (fewer
// outages, higher availability), and when a pair does black out, stored
// alternative paths recover it without waiting for BGP-style re-convergence.
//
// Extra flags on top of the Scale set:
//   --faults=FILE             fault scenario (fault_plan.hpp format)
//   --probe-interval-s=N      connectivity probe cadence (default 10)
//   --churn-minutes=N         measurement window (default 60)
//   --flap-rate-per-hour=R    default scenario churn rate (default 60)
#include "bench/bench_common.hpp"
#include "experiments/fault_response.hpp"

namespace scion::exp {
namespace {

void run(const util::Flags& flags, const Scale& scale, BenchReport& report) {
  const FaultResponseConfig config =
      fault_response_config(flags, scale, scale.sampled_pairs / 2);
  const double flap_rate = flags.get_double("flap-rate-per-hour", 60.0);
  const topo::Topology internet = build_internet(scale);
  const CoreNetworks nets = build_core_networks(scale, internet);
  const FaultResponseResult result = run_dyn_resilience_experiment(
      nets.bgp_view, nets.scion_view, config, flap_rate);

  const obs::Table table = dyn_resilience_table(result);
  obs::print_line("\nDynamic resilience — recovery under fault injection\n");
  obs::print(table.to_text());
  report.table(table);
  for (const FaultResponseSeries& s : result.series) {
    if (!s.lag_seconds.empty()) {
      report.cdf("recovery_seconds:" + s.name, s.lag_seconds, 32);
    }
    report.scalars(s.name, {{"availability", s.availability},
                            {"outages", s.outages},
                            {"recovered", s.recovered},
                            {"unrecovered", s.unrecovered},
                            {"faults_injected", s.fault_stats.link_down_events},
                            {"messages_dropped", s.drops.total()},
                            {"pcbs_revoked", s.pcbs_revoked}});
  }
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("dyn_resilience", argc, argv,
                                scion::exp::run);
}
