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
#include <cstdlib>
#include <iostream>

#include "bench/bench_common.hpp"
#include "experiments/resilience_experiment.hpp"

namespace scion::exp {
namespace {

DynResilienceConfig bench_config(const util::Flags& flags,
                                 const Scale& scale) {
  DynResilienceConfig config;
  config.sampled_pairs = scale.sampled_pairs / 2;
  config.sim_duration =
      util::Duration::minutes(flags.get_int("churn-minutes", 60));
  config.probe_interval =
      util::Duration::seconds(flags.get_int("probe-interval-s", 10));
  config.default_flap_rate_per_hour =
      flags.get_double("flap-rate-per-hour", 60.0);
  config.seed = scale.seed;
  const std::string faults_file = flags.get("faults", "");
  if (!faults_file.empty()) {
    std::string error;
    if (!faults::FaultPlan::parse_file(faults_file, &config.faults, &error)) {
      std::cerr << "bench_dyn_resilience: " << error << '\n';
      std::exit(1);
    }
  }
  return config;
}

void run(const util::Flags& flags, const Scale& scale, BenchReport& report) {
  const topo::Topology internet = build_internet(scale);
  const CoreNetworks nets = build_core_networks(scale, internet);
  const DynResilienceResult result = run_dyn_resilience_experiment(
      nets.bgp_view, nets.scion_view, bench_config(flags, scale));

  obs::print_line("\nDynamic resilience — recovery under fault injection");
  print_dyn_resilience(result);
  report.table(dyn_resilience_table(result));
  for (const DynResilienceSeries& s : result.series) {
    if (!s.recovery_seconds.empty()) {
      report.cdf("recovery_seconds:" + s.name, s.recovery_seconds, 32);
    }
    report.scalar("availability:" + s.name, s.availability);
    report.scalar("outages:" + s.name, static_cast<double>(s.outages));
    report.scalar("recovered:" + s.name, static_cast<double>(s.recovered));
    report.scalar("unrecovered:" + s.name, static_cast<double>(s.unrecovered));
    report.scalar("faults_injected:" + s.name,
                  static_cast<double>(s.fault_stats.link_down_events));
    report.scalar("messages_dropped:" + s.name,
                  static_cast<double>(s.drops.total()));
    report.scalar("pcbs_revoked:" + s.name,
                  static_cast<double>(s.pcbs_revoked));
  }
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("dyn_resilience", argc, argv,
                                scion::exp::run);
}
