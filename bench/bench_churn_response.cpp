// Churn response: how each control plane survives a sustained heavy-tailed
// link-flap process plus scheduled session restarts. Five series replay the
// same scenario — plain BGP, BGP with route-flap damping, BGP with graceful
// restart, SCION baseline beaconing, and SCION with staleness quarantine +
// re-origination backoff — each paired with a clean replica of itself, so
// the reported amplification is churn traffic over steady-state traffic.
// Expected shape: damping trades convergence lag for suppressed flapping
// routes (lower amplification); graceful restart rides out session restarts
// without losing forwarding (higher availability than plain BGP); the SCION
// robust series refills stores faster than revocation-evict beaconing.
//
// Extra flags on top of the Scale set:
//   --faults=FILE             fault scenario (fault_plan.hpp format)
//   --probe-interval-s=N      connectivity probe cadence (default 10)
//   --churn-minutes=N         measurement window (default 60)
//   --link-fraction=F         fraction of links that churn (default 0.5)
#include <cstdlib>
#include <iostream>

#include "bench/bench_common.hpp"
#include "experiments/churn_experiment.hpp"

namespace scion::exp {
namespace {

ChurnConfig bench_config(const util::Flags& flags, const Scale& scale) {
  ChurnConfig config;
  config.sampled_pairs = scale.sampled_pairs / 3;
  config.sim_duration =
      util::Duration::minutes(flags.get_int("churn-minutes", 60));
  config.probe_interval =
      util::Duration::seconds(flags.get_int("probe-interval-s", 10));
  config.churn_link_fraction = flags.get_double("link-fraction", 0.5);
  config.seed = scale.seed;
  const std::string faults_file = flags.get("faults", "");
  if (!faults_file.empty()) {
    std::string error;
    if (!faults::FaultPlan::parse_file(faults_file, &config.faults, &error)) {
      std::cerr << "bench_churn_response: " << error << '\n';
      std::exit(1);
    }
  }
  return config;
}

void run(const util::Flags& flags, const Scale& scale, BenchReport& report) {
  const topo::Topology internet = build_internet(scale);
  const CoreNetworks nets = build_core_networks(scale, internet);
  const ChurnResult result = run_churn_experiment(
      nets.bgp_view, nets.scion_view, bench_config(flags, scale));

  obs::print_line(
      "\nChurn response — survival mechanisms under sustained churn");
  print_churn(result);
  report.table(churn_table(result));
  for (const ChurnSeries& s : result.series) {
    if (!s.convergence_seconds.empty()) {
      report.cdf("convergence_seconds:" + s.name, s.convergence_seconds, 32);
    }
    report.scalar("availability:" + s.name, s.availability);
    report.scalar("amplification:" + s.name, s.amplification);
    report.scalar("outages:" + s.name, static_cast<double>(s.outages));
    report.scalar("recovered:" + s.name, static_cast<double>(s.recovered));
    report.scalar("unrecovered:" + s.name, static_cast<double>(s.unrecovered));
    report.scalar("control_messages:" + s.name,
                  static_cast<double>(s.control_messages));
    report.scalar("control_messages_clean:" + s.name,
                  static_cast<double>(s.control_messages_clean));
    report.scalar("routes_suppressed:" + s.name,
                  static_cast<double>(s.routes_suppressed));
    report.scalar("routes_reused:" + s.name,
                  static_cast<double>(s.routes_reused));
    report.scalar("stale_retained:" + s.name,
                  static_cast<double>(s.stale_retained));
    report.scalar("stale_expired:" + s.name,
                  static_cast<double>(s.stale_expired));
    report.scalar("pcbs_quarantined:" + s.name,
                  static_cast<double>(s.pcbs_quarantined));
    report.scalar("pcbs_revalidated:" + s.name,
                  static_cast<double>(s.pcbs_revalidated));
    report.scalar("reoriginations:" + s.name,
                  static_cast<double>(s.reoriginations));
    report.scalar("churn_events:" + s.name,
                  static_cast<double>(s.fault_stats.churn_events));
    report.scalar("session_restarts:" + s.name,
                  static_cast<double>(s.fault_stats.session_restarts));
  }
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("churn_response", argc, argv,
                                scion::exp::run);
}
