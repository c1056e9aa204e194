// Sustained churn: control-plane survival mechanisms under a heavy-tailed
// link-flap process (the operator-facing counterpart of the dynamic
// resilience experiment). Every series replays the *same* churn scenario —
// a seeded per-link ON/OFF process plus scheduled session restarts — and is
// paired with a clean (fault-free) replica of itself, so the reported
// control-message amplification isolates what churn costs each mechanism.
//
// Series:
//   BGP           — plain speakers (no damping, no graceful restart)
//   BGP Damping   — RFC 2439-shaped route-flap damping enabled
//   BGP GR        — graceful restart: session restarts retain stale routes
//   SCION Baseline— beaconing as-is (revocation evicts stored PCBs)
//   SCION Robust  — staleness quarantine + re-origination backoff
//
// Per series: a convergence-lag CDF (probe-quantized time from losing the
// last live path to regaining one), availability, suppressed/reused and
// stale-retained/expired counters, and the churn/clean traffic ratio.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "faults/fault_injector.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace scion::obs {
class Table;
}

namespace scion::exp {

struct ChurnConfig {
  std::size_t sampled_pairs{40};
  /// Measurement window under churn (after each system's warm-up).
  util::Duration sim_duration{util::Duration::hours(1)};
  util::Duration warmup{util::Duration::minutes(30)};
  /// Connectivity probe cadence; convergence lags are quantized to it.
  util::Duration probe_interval{util::Duration::seconds(10)};
  /// Shared scenario. When empty, a steady heavy-tailed churn process on
  /// `churn_link_fraction` of the links plus a few scheduled session
  /// restarts is synthesized (see churn_experiment.cpp).
  faults::FaultPlan faults{};
  double churn_link_fraction{0.5};
  std::uint64_t seed{1};
  /// Worker count for the independent series runs (0 = exec::default_jobs()).
  /// Results are byte-identical for any value.
  std::size_t jobs{0};
};

struct ChurnSeries {
  std::string name;
  /// Seconds from a pair losing its last live path to the control plane
  /// exposing a live one again (one sample per recovered outage).
  util::EmpiricalCdf convergence_seconds;
  std::uint64_t outages{0};
  std::uint64_t recovered{0};
  std::uint64_t unrecovered{0};
  /// Fraction of (pair, probe) samples with a live path.
  double availability{0.0};
  std::uint64_t probes{0};
  std::uint64_t probes_up{0};
  /// Control messages under churn vs. the same series run without faults.
  /// amplification = churn / clean (0 if clean is 0). BGP counts UPDATEs
  /// over the whole run (steady-state BGP is silent, so the cold-start
  /// convergence common to both runs is the natural denominator); SCION
  /// counts PCBs sent in the measurement window (beaconing is periodic, so
  /// the clean window itself carries the steady-state rate).
  std::uint64_t control_messages{0};
  std::uint64_t control_messages_clean{0};
  double amplification{0.0};
  /// BGP damping counters (zero for other series).
  std::uint64_t routes_suppressed{0};
  std::uint64_t routes_reused{0};
  /// BGP graceful-restart counters (zero for other series).
  std::uint64_t stale_retained{0};
  std::uint64_t stale_expired{0};
  /// SCION robustness counters (zero for other series).
  std::uint64_t pcbs_quarantined{0};
  std::uint64_t pcbs_revalidated{0};
  std::uint64_t reoriginations{0};
  faults::FaultInjectorStats fault_stats;
};

struct ChurnResult {
  std::vector<std::pair<topo::AsIndex, topo::AsIndex>> pairs;
  std::vector<ChurnSeries> series;
};

/// Runs all five series (each paired with its clean replica) through the
/// shared churn scenario on the two views of the same core network.
ChurnResult run_churn_experiment(const topo::Topology& bgp_view,
                                 const topo::Topology& scion_view,
                                 const ChurnConfig& config);

obs::Table churn_table(const ChurnResult& r);
void print_churn(const ChurnResult& r);

}  // namespace scion::exp
