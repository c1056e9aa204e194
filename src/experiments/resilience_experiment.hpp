// Dynamic resilience under churn: while the quality experiment (Fig. 6a)
// scores the *static* disseminated path sets by min-cut, this experiment
// runs the control planes through a live fault scenario and measures how
// fast each one recovers end-to-end connectivity — the operator-visible
// metric of the deployment sections (3.3, 4.1).
//
// All series replay the *same* FaultPlan (the two topology views share link
// indices), so the comparison is paired: the same links fail at the same
// virtual times for SCION baseline, SCION diversity, and BGP. A periodic
// read-only probe walks each sampled AS pair's currently-known paths and
// checks whether at least one is fully up; an up->down->up transition of a
// pair yields one recovery-time sample (time from losing the last live
// path to the control plane exposing a live one again).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "faults/fault_injector.hpp"
#include "simnet/network.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

#include "experiments/scale.hpp"

namespace scion::obs {
class Table;
}

namespace scion::exp {

struct DynResilienceConfig {
  std::size_t sampled_pairs{60};
  /// Measurement window under churn (after each system's own warm-up /
  /// convergence phase).
  util::Duration sim_duration{util::Duration::hours(1)};
  /// Connectivity probe cadence; recovery times are quantized to it.
  util::Duration probe_interval{util::Duration::seconds(10)};
  /// Fault scenario shared by all series. When empty, a default flap
  /// process at `default_flap_rate_per_hour` is synthesized (see
  /// resilience_experiment.cpp for its downtime bounds).
  faults::FaultPlan faults{};
  double default_flap_rate_per_hour{60.0};
  std::uint64_t seed{1};
  /// Worker count for the independent series runs (0 = exec::default_jobs()).
  /// Results are byte-identical for any value.
  std::size_t jobs{0};
};

struct DynResilienceSeries {
  std::string name;
  /// Seconds from a pair losing its last live path to the control plane
  /// exposing a live one again (one sample per recovered outage).
  util::EmpiricalCdf recovery_seconds;
  std::uint64_t outages{0};
  std::uint64_t recovered{0};
  /// Outages still unresolved when the run ended.
  std::uint64_t unrecovered{0};
  /// Fraction of (pair, probe) samples with a live path.
  double availability{0.0};
  std::uint64_t probes{0};
  std::uint64_t probes_up{0};
  faults::FaultInjectorStats fault_stats;
  sim::DropStats drops;
  /// SCION series only: stored PCBs evicted by revocations.
  std::uint64_t pcbs_revoked{0};
};

struct DynResilienceResult {
  std::vector<std::pair<topo::AsIndex, topo::AsIndex>> pairs;
  std::vector<DynResilienceSeries> series;
};

/// Runs SCION baseline, SCION diversity, and BGP through the configured
/// fault scenario on the two views of the same core network.
DynResilienceResult run_dyn_resilience_experiment(
    const topo::Topology& bgp_view, const topo::Topology& scion_view,
    const DynResilienceConfig& config);

obs::Table dyn_resilience_table(const DynResilienceResult& r);
void print_dyn_resilience(const DynResilienceResult& r);

}  // namespace scion::exp
