// Fault response: how the control planes keep AS pairs connected while links
// fail (Secs. 3.3 and 4.1), measured live where Fig. 6a scores the static
// path sets by min-cut. Two experiments share one runner:
//
//  - dynamic resilience: SCION baseline, SCION diversity and BGP through a
//    link-flap process;
//  - churn response: plain BGP, BGP with RFC 2439-shaped route-flap damping,
//    BGP with graceful restart, SCION baseline and SCION with staleness
//    quarantine plus re-origination backoff, through sustained heavy-tailed
//    churn and session restarts. Each series first runs a clean (fault-free)
//    replica of itself, so its amplification isolates what churn costs it.
//
// Every series replays the same faults::FaultPlan (the two topology views
// share link indices), so the comparison is paired. A periodic read-only
// probe asks each sampled AS pair whether it has a live path; an
// up->down->up transition of a pair yields one lag sample, the time from
// losing the last live path to the control plane exposing one again.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_injector.hpp"
#include "simnet/network.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

#include "experiments/scale.hpp"

namespace scion::util {
class Flags;
}

namespace scion::obs {
class Table;
}

namespace scion::exp {

struct FaultResponseConfig {
  std::size_t sampled_pairs{40};
  /// Measurement window under faults, after the warm-up (SCION beacon-store
  /// population, BGP cold-start convergence).
  util::Duration sim_duration{util::Duration::hours(1)};
  util::Duration warmup{util::Duration::minutes(30)};
  /// Connectivity probe cadence; lags are quantized to it.
  util::Duration probe_interval{util::Duration::seconds(10)};
  /// The scenario every series replays; when empty, the experiment
  /// synthesizes its default one.
  faults::FaultPlan faults{};
  std::uint64_t seed{1};
  /// Worker count for the independent series runs (0 = exec::default_jobs()).
  /// Results are byte-identical for any value.
  std::size_t jobs{0};
};

struct FaultResponseSeries {
  std::string name;
  /// Probe-quantized seconds from a pair losing its last live path to the
  /// control plane exposing a live one again (one sample per recovered
  /// outage).
  util::EmpiricalCdf lag_seconds;
  std::uint64_t outages{0};
  std::uint64_t recovered{0};
  /// Outages still open when the run ended.
  std::uint64_t unrecovered{0};
  /// Fraction of (pair, probe) samples with a live path.
  double availability{0.0};
  std::uint64_t probes{0};
  std::uint64_t probes_up{0};
  /// Control messages of the run, and of its clean replica (0 without one).
  /// amplification = churn / clean (0 if clean is 0). BGP counts UPDATEs
  /// over the whole run (steady-state BGP is silent, so the cold-start
  /// convergence common to both runs is the natural denominator); SCION
  /// counts PCBs sent in the measurement window (beaconing is periodic, so
  /// the clean window itself carries the steady-state rate).
  std::uint64_t control_messages{0};
  std::uint64_t control_messages_clean{0};
  double amplification{0.0};
  /// BGP damping and graceful-restart counters (zero for SCION series).
  std::uint64_t routes_suppressed{0};
  std::uint64_t routes_reused{0};
  std::uint64_t stale_retained{0};
  std::uint64_t stale_expired{0};
  /// SCION counters (zero for BGP series): stored PCBs evicted by
  /// revocations, and the robust series' quarantine and re-originations.
  std::uint64_t pcbs_revoked{0};
  std::uint64_t pcbs_quarantined{0};
  std::uint64_t pcbs_revalidated{0};
  std::uint64_t reoriginations{0};
  faults::FaultInjectorStats fault_stats;
  sim::DropStats drops;
};

struct FaultResponseResult {
  std::vector<std::pair<topo::AsIndex, topo::AsIndex>> pairs;
  std::vector<FaultResponseSeries> series;
};

/// SCION baseline, SCION diversity and BGP. Without a scenario in `config`,
/// the default one is a network-wide flap process at `flap_rate_per_hour`
/// (none at 0) with 30 s to 3 min downtimes.
FaultResponseResult run_dyn_resilience_experiment(
    const topo::Topology& bgp_view, const topo::Topology& scion_view,
    const FaultResponseConfig& config, double flap_rate_per_hour);

/// The five churn-response series, each after its clean replica. Without a
/// scenario in `config`, the default one is steady heavy-tailed churn on
/// `link_fraction` of the links plus four session restarts spread evenly
/// across the window.
FaultResponseResult run_churn_experiment(const topo::Topology& bgp_view,
                                         const topo::Topology& scion_view,
                                         const FaultResponseConfig& config,
                                         double link_fraction);

obs::Table dyn_resilience_table(const FaultResponseResult& r);
obs::Table churn_table(const FaultResponseResult& r);

/// The configuration both fault-response benches read: `sampled_pairs`, the
/// scale's seed, --churn-minutes (the window, default 60),
/// --probe-interval-s (default 10) and --faults=FILE (the scenario, in the
/// fault_plan.hpp format). Throws std::runtime_error when FILE does not
/// parse.
FaultResponseConfig fault_response_config(const util::Flags& flags,
                                          const Scale& scale,
                                          std::size_t sampled_pairs);

}  // namespace scion::exp
