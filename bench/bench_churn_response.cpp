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
#include "bench/bench_common.hpp"
#include "experiments/fault_response.hpp"

namespace scion::exp {
namespace {

void run(const util::Flags& flags, const Scale& scale, BenchReport& report) {
  const FaultResponseConfig config =
      fault_response_config(flags, scale, scale.sampled_pairs / 3);
  const double link_fraction = flags.get_double("link-fraction", 0.5);
  const topo::Topology internet = build_internet(scale);
  const CoreNetworks nets = build_core_networks(scale, internet);
  const FaultResponseResult result = run_churn_experiment(
      nets.bgp_view, nets.scion_view, config, link_fraction);

  const obs::Table table = churn_table(result);
  obs::print_line(
      "\nChurn response — survival mechanisms under sustained churn\n");
  obs::print(table.to_text());
  report.table(table);
  for (const FaultResponseSeries& s : result.series) {
    if (!s.lag_seconds.empty()) {
      report.cdf("convergence_seconds:" + s.name, s.lag_seconds, 32);
    }
    report.scalars(
        s.name,
        {{"availability", s.availability},
         {"amplification", s.amplification},
         {"outages", s.outages},
         {"recovered", s.recovered},
         {"unrecovered", s.unrecovered},
         {"control_messages", s.control_messages},
         {"control_messages_clean", s.control_messages_clean},
         {"routes_suppressed", s.routes_suppressed},
         {"routes_reused", s.routes_reused},
         {"stale_retained", s.stale_retained},
         {"stale_expired", s.stale_expired},
         {"pcbs_quarantined", s.pcbs_quarantined},
         {"pcbs_revalidated", s.pcbs_revalidated},
         {"reoriginations", s.reoriginations},
         {"churn_events", s.fault_stats.churn_events},
         {"session_restarts", s.fault_stats.session_restarts}});
  }
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("churn_response", argc, argv,
                                scion::exp::run);
}
