#include "experiments/fault_response.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "bgp/bgp_sim.hpp"
#include "core/beaconing_sim.hpp"
#include "exec/task_pool.hpp"
#include "obs/event_profile.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace scion::exp {

namespace {

// Event-cost attribution label for the connectivity probe timers.
const obs::EventLabel kProbeLabel = obs::event_label("experiment.probe");

/// SCION series: PCBs sent per origin AS and interval, and stored per
/// origin AS.
constexpr std::size_t kDisseminationLimit = 5;
constexpr std::size_t kStorageLimit = 60;

/// Downtime bounds of the dynamic-resilience default flap process.
constexpr util::Duration kFlapDowntimeMin = util::Duration::seconds(30);
constexpr util::Duration kFlapDowntimeMax = util::Duration::minutes(3);

/// Decorrelates the churn default scenario and its session-restart draws
/// from every other use of the experiment seed.
constexpr std::uint64_t kChurnSeedMix = 0xC0FFEE9E3779B97FULL;

// The churn default scenario: a steady heavy-tailed churn process on a link
// fraction (aggressive timescales, so damping demonstrably engages) plus
// kSessionRestarts restarts spread evenly across the window.
constexpr util::Duration kChurnUpMin = util::Duration::minutes(2);
constexpr util::Duration kChurnUpMax = util::Duration::minutes(20);
constexpr double kChurnUpAlpha = 1.1;
constexpr util::Duration kChurnDownMin = util::Duration::seconds(30);
constexpr util::Duration kChurnDownMax = util::Duration::minutes(3);
constexpr double kChurnDownAlpha = 1.3;
constexpr std::size_t kSessionRestarts = 4;
constexpr util::Duration kSessionRestartDuration = util::Duration::seconds(90);

using Pairs = std::vector<std::pair<topo::AsIndex, topo::AsIndex>>;
/// Whether the pair (s, t) currently has a live path.
using PairLive = std::function<bool(topo::AsIndex, topo::AsIndex)>;

/// One series: a SCION control plane (an algorithm, and staleness
/// quarantine plus re-origination backoff when robust) or a BGP one (with
/// route-flap damping and graceful restart as flagged).
struct SeriesSpec {
  std::string name;
  bool bgp{false};
  ctrl::AlgorithmKind algorithm{ctrl::AlgorithmKind::kBaseline};
  bool robust{false};
  bool damping{false};
  bool graceful_restart{false};
};

/// What one experiment runs: its series, the seed mix of its pair sample,
/// the prefix of its phase names, and whether each series runs a clean
/// replica first.
struct Experiment {
  std::vector<SeriesSpec> series;
  std::uint64_t pair_seed_mix;
  std::string phase_prefix;
  bool clean_replica;
};

/// Per-pair connectivity state machine fed by the periodic probe.
struct PairState {
  bool seen{false};
  bool up{false};
  bool in_outage{false};
  util::TimePoint down_since;
};

/// Feeds one probe round into the state machines and into the series'
/// probe, outage and lag tallies.
void probe_round(FaultResponseSeries& series, std::vector<PairState>& states,
                 const Pairs& pairs, util::TimePoint now,
                 const PairLive& live) {
  for (std::size_t i = 0; i < states.size(); ++i) {
    const bool up = live(pairs[i].first, pairs[i].second);
    ++series.probes;
    if (up) ++series.probes_up;
    PairState& st = states[i];
    if (st.seen) {
      if (st.up && !up) {
        st.in_outage = true;
        st.down_since = now;
        ++series.outages;
      } else if (!st.up && up && st.in_outage) {
        series.lag_seconds.add((now - st.down_since).as_seconds());
        ++series.recovered;
        st.in_outage = false;
      }
    }
    st.seen = true;
    st.up = up;
  }
}

/// After the run: counts the outages still open into `unrecovered` and the
/// fraction of probes that found a live path into `availability`.
void finalize_probes(FaultResponseSeries& series,
                     const std::vector<PairState>& states) {
  for (const PairState& st : states) {
    if (st.in_outage) ++series.unrecovered;
  }
  series.availability =
      series.probes > 0 ? static_cast<double>(series.probes_up) /
                              static_cast<double>(series.probes)
                        : 0.0;
}

/// True if `sim` stores a path between `s` and `t`, in either direction,
/// every link of which is currently up.
bool scion_pair_live(const ctrl::BeaconingSim& sim, topo::AsIndex s,
                     topo::AsIndex t) {
  const sim::Network& net = sim.network();
  for (const auto& path : sim.paths_between(s, t)) {
    if (path.empty()) continue;
    const bool live =
        std::all_of(path.begin(), path.end(), [&net](topo::LinkIndex l) {
          return net.channel_up(static_cast<sim::ChannelId>(l));
        });
    if (live) return true;
  }
  return false;
}

ctrl::BeaconingSimConfig scion_config(const FaultResponseConfig& config,
                                      const SeriesSpec& spec,
                                      const faults::FaultPlan& plan) {
  ctrl::BeaconingSimConfig c;
  c.server.algorithm = spec.algorithm;
  c.server.mode = ctrl::BeaconingMode::kCore;
  c.server.storage_limit = kStorageLimit;
  c.server.dissemination_limit = kDisseminationLimit;
  c.server.compute_crypto = false;
  if (spec.algorithm == ctrl::AlgorithmKind::kDiversity) {
    c.server.store_policy = ctrl::StorePolicy::kDiversityAware;
  }
  c.server.stale_quarantine = spec.robust;
  c.server.reorigination = spec.robust;
  c.sim_duration = config.sim_duration;
  c.warmup = config.warmup;
  c.seed = config.seed;
  c.faults = plan;
  return c;
}

bgp::BgpSimConfig bgp_config(const FaultResponseConfig& config,
                             const SeriesSpec& spec,
                             const faults::FaultPlan& plan) {
  bgp::BgpSimConfig c;
  c.seed = config.seed;
  c.convergence_window = config.warmup;
  c.churn_window = config.sim_duration;
  c.flaps_per_adjacency_per_day = 0.0;  // churn comes from the plan
  c.damping.enabled = spec.damping;
  c.graceful_restart.enabled = spec.graceful_restart;
  c.faults = plan;
  return c;
}

/// Runs every series of `experiment` through `plan`, each as one task on its
/// own simulator and network instances: nothing is shared mutably, so the
/// result is the same for any job count.
FaultResponseResult run_fault_response(const Experiment& experiment,
                                       const topo::Topology& bgp_view,
                                       const topo::Topology& scion_view,
                                       const FaultResponseConfig& config,
                                       const faults::FaultPlan& plan) {
  FaultResponseResult result;
  util::Rng rng{config.seed ^ experiment.pair_seed_mix};
  result.pairs =
      sample_distinct_pairs(rng, scion_view.as_count(), config.sampled_pairs);
  const Pairs& pairs = result.pairs;
  const faults::FaultPlan clean_plan{};

  const auto run_series = [&](const SeriesSpec& spec) {
    obs::ProfilePhase phase{experiment.phase_prefix + spec.name};
    FaultResponseSeries series;
    series.name = spec.name;
    std::vector<PairState> states(pairs.size());
    // Probes every sampled pair each interval of the measurement window.
    const auto probe = [&](sim::Simulator& simulator, const PairLive& live) {
      simulator.schedule_periodic(
          util::TimePoint::origin() + config.warmup + config.probe_interval,
          config.probe_interval, kProbeLabel, [&series, &states, &pairs,
                                               &simulator, &live] {
            probe_round(series, states, pairs, simulator.now(), live);
          });
    };
    if (spec.bgp) {
      if (experiment.clean_replica) {
        bgp::BgpSim clean{bgp_view, bgp_config(config, spec, clean_plan)};
        clean.run();
        series.control_messages_clean = clean.total_updates_sent();
      }
      bgp::BgpSim sim{bgp_view, bgp_config(config, spec, plan)};
      const PairLive live = [&sim](topo::AsIndex s, topo::AsIndex t) {
        return sim.has_live_route(s, t) && sim.has_live_route(t, s);
      };
      probe(sim.simulator(), live);
      sim.run();
      series.control_messages = sim.total_updates_sent();
      series.routes_suppressed = sim.total_routes_suppressed();
      series.routes_reused = sim.total_routes_reused();
      series.stale_retained = sim.total_stale_retained();
      series.stale_expired = sim.total_stale_expired();
      series.fault_stats = sim.injector().stats();
      series.drops = sim.network().drop_stats();
    } else {
      if (experiment.clean_replica) {
        ctrl::BeaconingSim clean{scion_view,
                                 scion_config(config, spec, clean_plan)};
        clean.run();
        series.control_messages_clean = clean.total_pcbs_sent();
      }
      ctrl::BeaconingSim sim{scion_view, scion_config(config, spec, plan)};
      const PairLive live = [&sim](topo::AsIndex s, topo::AsIndex t) {
        return scion_pair_live(sim, s, t);
      };
      probe(sim.simulator(), live);
      sim.run();
      series.control_messages = sim.total_pcbs_sent();
      const ctrl::BeaconServerStats agg = sim.aggregate_stats();
      series.pcbs_revoked = agg.pcbs_revoked;
      series.pcbs_quarantined = agg.pcbs_quarantined;
      series.pcbs_revalidated = agg.pcbs_revalidated;
      series.reoriginations = agg.reoriginations;
      if (sim.injector() != nullptr) {
        series.fault_stats = sim.injector()->stats();
      }
      series.drops = sim.network().drop_stats();
    }
    finalize_probes(series, states);
    series.amplification =
        series.control_messages_clean > 0
            ? static_cast<double>(series.control_messages) /
                  static_cast<double>(series.control_messages_clean)
            : 0.0;
    return series;
  };

  result.series = exec::parallel_map(experiment.series, run_series,
                                     config.jobs);
  return result;
}

std::string lag_summary(const util::EmpiricalCdf& lag) {
  return lag.empty() ? "(no recoveries)" : lag.summary();
}

}  // namespace

FaultResponseResult run_dyn_resilience_experiment(
    const topo::Topology& bgp_view, const topo::Topology& scion_view,
    const FaultResponseConfig& config, double flap_rate_per_hour) {
  faults::FaultPlan plan = config.faults;
  if (plan.empty() && flap_rate_per_hour > 0.0) {
    faults::FlapProcess flap;
    flap.rate_per_hour = flap_rate_per_hour;
    flap.downtime_min = kFlapDowntimeMin;
    flap.downtime_max = kFlapDowntimeMax;
    plan.flaps.push_back(flap);
    plan.seed = config.seed ^ 0x9E3779B97F4A7C15ULL;
  }
  const Experiment dyn_resilience{
      .series = {{.name = "SCION Baseline"},
                 {.name = "SCION Diversity",
                  .algorithm = ctrl::AlgorithmKind::kDiversity},
                 {.name = "BGP", .bgp = true}},
      .pair_seed_mix = 0xD15C0,
      .phase_prefix = "dyn_resilience.",
      .clean_replica = false};
  return run_fault_response(dyn_resilience, bgp_view, scion_view, config,
                            plan);
}

FaultResponseResult run_churn_experiment(const topo::Topology& bgp_view,
                                         const topo::Topology& scion_view,
                                         const FaultResponseConfig& config,
                                         double link_fraction) {
  faults::FaultPlan plan = config.faults;
  if (plan.empty()) {
    plan.seed = config.seed ^ kChurnSeedMix;
    faults::ChurnSpec churn;
    churn.profile = faults::ChurnSpec::Profile::kSteady;
    churn.links = faults::LinkClass::kAll;
    churn.link_fraction = link_fraction;
    churn.up_min = kChurnUpMin;
    churn.up_max = kChurnUpMax;
    churn.up_alpha = kChurnUpAlpha;
    churn.down_min = kChurnDownMin;
    churn.down_max = kChurnDownMax;
    churn.down_alpha = kChurnDownAlpha;
    churn.start = util::Duration::zero();
    churn.duration = config.sim_duration;
    plan.churn.push_back(churn);

    // Session restarts spread evenly across the window, on links drawn from
    // a dedicated substream (link indices are shared by both views).
    util::Rng restart_rng = util::Rng::substream(plan.seed, 0x5E55);
    for (std::size_t i = 0; i < kSessionRestarts; ++i) {
      faults::Event ev;
      ev.kind = faults::Event::Kind::kSessionRestart;
      ev.target = static_cast<std::uint32_t>(restart_rng.uniform_int(
          std::int64_t{0},
          static_cast<std::int64_t>(bgp_view.link_count()) - 1));
      ev.at = util::Duration::nanoseconds(config.sim_duration.ns() *
                                          static_cast<std::int64_t>(i + 1) /
                                          static_cast<std::int64_t>(
                                              kSessionRestarts + 1));
      ev.duration = kSessionRestartDuration;
      plan.events.push_back(ev);
    }
  }
  const Experiment churn{
      .series = {{.name = "BGP", .bgp = true},
                 {.name = "BGP Damping", .bgp = true, .damping = true},
                 {.name = "BGP GR", .bgp = true, .graceful_restart = true},
                 {.name = "SCION Baseline"},
                 {.name = "SCION Robust", .robust = true}},
      .pair_seed_mix = 0xC4C4,
      .phase_prefix = "churn.",
      .clean_replica = true};
  return run_fault_response(churn, bgp_view, scion_view, config, plan);
}

obs::Table dyn_resilience_table(const FaultResponseResult& r) {
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
  for (const FaultResponseSeries& s : r.series) {
    t.row({s.name, lag_summary(s.lag_seconds), obs::fmt_u64(s.outages),
           obs::fmt_u64(s.recovered), obs::fmt_u64(s.unrecovered),
           obs::fmt_f(s.availability, 4),
           obs::fmt_u64(s.fault_stats.link_down_events),
           obs::fmt_u64(s.pcbs_revoked)});
  }
  return t;
}

obs::Table churn_table(const FaultResponseResult& r) {
  obs::Table t{
      "Sustained churn: convergence lag from pair outage to first live path "
      "(probe-quantized), availability, and churn/clean traffic ratio",
      {obs::Column{"Series", obs::Align::kLeft, 16},
       obs::Column{"Convergence lag [s]", obs::Align::kLeft, 38},
       obs::Column{"Outages", obs::Align::kRight, 9},
       obs::Column{"Availability", obs::Align::kRight, 13},
       obs::Column{"Amplif.", obs::Align::kRight, 9},
       obs::Column{"Suppressed", obs::Align::kRight, 11},
       obs::Column{"Stale kept", obs::Align::kRight, 11},
       obs::Column{"Quarantined", obs::Align::kRight, 12},
       obs::Column{"Re-origin", obs::Align::kRight, 10}}};
  for (const FaultResponseSeries& s : r.series) {
    t.row({s.name, lag_summary(s.lag_seconds), obs::fmt_u64(s.outages),
           obs::fmt_f(s.availability, 4), obs::fmt_f(s.amplification, 2),
           obs::fmt_u64(s.routes_suppressed), obs::fmt_u64(s.stale_retained),
           obs::fmt_u64(s.pcbs_quarantined), obs::fmt_u64(s.reoriginations)});
  }
  return t;
}

FaultResponseConfig fault_response_config(const util::Flags& flags,
                                          const Scale& scale,
                                          std::size_t sampled_pairs) {
  FaultResponseConfig config;
  config.sampled_pairs = sampled_pairs;
  config.sim_duration =
      util::Duration::minutes(flags.get_int("churn-minutes", 60));
  config.probe_interval =
      util::Duration::seconds(flags.get_int("probe-interval-s", 10));
  config.seed = scale.seed;
  const std::string faults_file = flags.get("faults", "");
  std::string error;
  if (!faults_file.empty() &&
      !faults::FaultPlan::parse_file(faults_file, &config.faults, &error)) {
    throw std::runtime_error(error);
  }
  return config;
}

}  // namespace scion::exp
