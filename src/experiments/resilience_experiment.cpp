#include "experiments/resilience_experiment.hpp"

#include "bgp/bgp_sim.hpp"
#include "core/beaconing_sim.hpp"
#include "exec/task_pool.hpp"
#include "obs/event_profile.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "util/rng.hpp"

#include "experiments/connectivity_probe.hpp"

namespace scion::exp {

namespace {

// Event-cost attribution label for the connectivity probe timers.
const obs::EventLabel kProbeLabel = obs::event_label("experiment.probe");

/// Warm-up before the measurement window: SCION beacon-store population,
/// BGP cold-start convergence.
constexpr util::Duration kWarmup = util::Duration::minutes(30);
/// SCION series: PCBs sent per origin AS and interval, and stored per
/// origin AS.
constexpr std::size_t kDisseminationLimit = 5;
constexpr std::size_t kStorageLimit = 60;
/// Downtime bounds of the default flap scenario.
constexpr util::Duration kDefaultDowntimeMin = util::Duration::seconds(30);
constexpr util::Duration kDefaultDowntimeMax = util::Duration::minutes(3);

}  // namespace

DynResilienceResult run_dyn_resilience_experiment(
    const topo::Topology& bgp_view, const topo::Topology& scion_view,
    const DynResilienceConfig& config) {
  DynResilienceResult result;
  util::Rng rng{config.seed ^ 0xD15C0};

  // Sampled distinct AS pairs (the probe population). The dedicated helper
  // dedupes; the old loop here could probe the same pair twice.
  const std::size_t n = scion_view.as_count();
  result.pairs = sample_distinct_pairs(rng, n, config.sampled_pairs);

  // The shared scenario: both views have identical link indices, so every
  // series sees the same faults at the same virtual times.
  faults::FaultPlan plan = config.faults;
  if (plan.empty() && config.default_flap_rate_per_hour > 0.0) {
    faults::FlapProcess flap;
    flap.rate_per_hour = config.default_flap_rate_per_hour;
    flap.downtime_min = kDefaultDowntimeMin;
    flap.downtime_max = kDefaultDowntimeMax;
    plan.flaps.push_back(flap);
    plan.seed = config.seed ^ 0x9E3779B97F4A7C15ULL;
  }

  // Every series simulates the same fault scenario on its own simulator and
  // network instance; nothing is shared mutably across series, so the three
  // runs are independent tasks.
  const auto run_scion = [&](ctrl::AlgorithmKind algorithm,
                             const std::string& name) {
    obs::ProfilePhase phase{"dyn_resilience." + name};
    ctrl::BeaconingSimConfig c;
    c.server.algorithm = algorithm;
    c.server.mode = ctrl::BeaconingMode::kCore;
    c.server.storage_limit = kStorageLimit;
    c.server.dissemination_limit = kDisseminationLimit;
    c.server.compute_crypto = false;
    if (algorithm == ctrl::AlgorithmKind::kDiversity) {
      c.server.store_policy = ctrl::StorePolicy::kDiversityAware;
    }
    c.sim_duration = config.sim_duration;
    c.warmup = kWarmup;
    c.seed = config.seed;
    c.faults = plan;
    ctrl::BeaconingSim sim{scion_view, c};

    DynResilienceSeries series;
    series.name = name;
    std::vector<PairState> states(result.pairs.size());
    const util::TimePoint measure_start = util::TimePoint::origin() + kWarmup;
    sim.simulator().schedule_periodic(
        measure_start + config.probe_interval, config.probe_interval,
        kProbeLabel, [&] {
          probe_round(series, series.recovery_seconds, states,
                      sim.simulator().now(), [&](std::size_t i) {
                        const auto [s, t] = result.pairs[i];
                        return scion_pair_live(sim, s, t);
                      });
        });
    sim.run();
    finalize_probes(series, states);
    if (sim.injector() != nullptr) series.fault_stats = sim.injector()->stats();
    series.drops = sim.network().drop_stats();
    series.pcbs_revoked = sim.aggregate_stats().pcbs_revoked;
    return series;
  };

  const auto run_bgp = [&]() {
    obs::ProfilePhase phase{"dyn_resilience.BGP"};
    bgp::BgpSimConfig bc;
    bc.seed = config.seed;
    bc.convergence_window = kWarmup;
    bc.churn_window = config.sim_duration;
    bc.flaps_per_adjacency_per_day = 0.0;  // churn comes from the shared plan
    bc.faults = plan;
    bgp::BgpSim sim{bgp_view, bc};

    DynResilienceSeries series;
    series.name = "BGP";
    std::vector<PairState> states(result.pairs.size());
    const util::TimePoint measure_start = util::TimePoint::origin() + kWarmup;
    sim.simulator().schedule_periodic(
        measure_start + config.probe_interval, config.probe_interval,
        kProbeLabel, [&] {
          probe_round(series, series.recovery_seconds, states,
                      sim.simulator().now(), [&](std::size_t i) {
                        const auto [s, t] = result.pairs[i];
                        return sim.has_live_route(s, t) &&
                               sim.has_live_route(t, s);
                      });
        });
    sim.run();
    finalize_probes(series, states);
    series.fault_stats = sim.injector().stats();
    series.drops = sim.network().drop_stats();
    return series;
  };

  result.series = exec::parallel_map_n(
      3,
      [&](std::size_t i) {
        switch (i) {
          case 0:
            return run_scion(ctrl::AlgorithmKind::kBaseline, "SCION Baseline");
          case 1:
            return run_scion(ctrl::AlgorithmKind::kDiversity,
                             "SCION Diversity");
          default:
            return run_bgp();
        }
      },
      config.jobs);

  return result;
}

obs::Table dyn_resilience_table(const DynResilienceResult& r) {
  obs::Table t{
      "Dynamic resilience: recovery time from pair outage to first live "
      "path (probe-quantized), under the shared fault scenario",
      {obs::Column{"Series", obs::Align::kLeft, 18},
       obs::Column{"Recovery time [s]", obs::Align::kLeft, 40},
       obs::Column{"Outages", obs::Align::kRight, 9},
       obs::Column{"Recovered", obs::Align::kRight, 10},
       obs::Column{"Stuck", obs::Align::kRight, 7},
       obs::Column{"Availability", obs::Align::kRight, 13},
       obs::Column{"Faults", obs::Align::kRight, 8},
       obs::Column{"Revoked PCBs", obs::Align::kRight, 13}}};
  for (const DynResilienceSeries& s : r.series) {
    t.row({s.name,
           s.recovery_seconds.empty() ? "(no recoveries)"
                                      : s.recovery_seconds.summary(),
           obs::fmt_u64(s.outages), obs::fmt_u64(s.recovered),
           obs::fmt_u64(s.unrecovered), obs::fmt_f(s.availability, 4),
           obs::fmt_u64(s.fault_stats.link_down_events),
           obs::fmt_u64(s.pcbs_revoked)});
  }
  return t;
}

void print_dyn_resilience(const DynResilienceResult& r) {
  obs::print_line("");
  obs::print(dyn_resilience_table(r).to_text());
}

}  // namespace scion::exp
