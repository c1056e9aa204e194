#include "experiments/churn_experiment.hpp"

#include "bgp/bgp_sim.hpp"
#include "core/beaconing_sim.hpp"
#include "exec/task_pool.hpp"
#include "obs/event_profile.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "util/rng.hpp"

#include "experiments/connectivity_probe.hpp"
#include "experiments/scale.hpp"

namespace scion::exp {

namespace {

// Event-cost attribution label for the connectivity probe timers.
const obs::EventLabel kProbeLabel = obs::event_label("experiment.probe");

/// Decorrelates the synthesized scenario and its session-restart draws from
/// every other use of the experiment seed.
constexpr std::uint64_t kChurnSeedMix = 0xC0FFEE9E3779B97FULL;

// The synthesized scenario: a steady heavy-tailed churn process on a link
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

/// SCION series: PCBs sent per origin AS and interval, and stored per
/// origin AS.
constexpr std::size_t kDisseminationLimit = 5;
constexpr std::size_t kStorageLimit = 60;

void finalize(ChurnSeries& series, const std::vector<PairState>& states) {
  finalize_probes(series, states);
  series.amplification =
      series.control_messages_clean > 0
          ? static_cast<double>(series.control_messages) /
                static_cast<double>(series.control_messages_clean)
          : 0.0;
}

}  // namespace

ChurnResult run_churn_experiment(const topo::Topology& bgp_view,
                                 const topo::Topology& scion_view,
                                 const ChurnConfig& config) {
  ChurnResult result;
  util::Rng rng{config.seed ^ 0xC4C4};

  const std::size_t n = scion_view.as_count();
  result.pairs = sample_distinct_pairs(rng, n, config.sampled_pairs);

  // The shared scenario: both views have identical link indices, so every
  // series sees the same churn at the same virtual times.
  faults::FaultPlan plan = config.faults;
  if (plan.empty()) {
    plan.seed = config.seed ^ kChurnSeedMix;
    faults::ChurnSpec churn;
    churn.profile = faults::ChurnSpec::Profile::kSteady;
    churn.links = faults::LinkClass::kAll;
    churn.link_fraction = config.churn_link_fraction;
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
  const faults::FaultPlan clean_plan{};  // the paired fault-free replica

  // Each series runs the scenario and a clean replica on its own simulator
  // instances; nothing is shared mutably, so the five series are
  // independent tasks.
  const auto run_bgp = [&](const std::string& name, bool damping_on,
                           bool gr_on) {
    obs::ProfilePhase phase{"churn." + name};
    const auto make_config = [&](const faults::FaultPlan& p) {
      bgp::BgpSimConfig bc;
      bc.seed = config.seed;
      bc.convergence_window = config.warmup;
      bc.churn_window = config.sim_duration;
      bc.flaps_per_adjacency_per_day = 0.0;  // churn comes from the plan
      bc.damping.enabled = damping_on;
      bc.graceful_restart.enabled = gr_on;
      bc.faults = p;
      return bc;
    };

    ChurnSeries series;
    series.name = name;
    {
      bgp::BgpSim clean{bgp_view, make_config(clean_plan)};
      clean.run();
      series.control_messages_clean = clean.total_updates_sent();
    }
    bgp::BgpSim sim{bgp_view, make_config(plan)};
    std::vector<PairState> states(result.pairs.size());
    const util::TimePoint measure_start =
        util::TimePoint::origin() + config.warmup;
    sim.simulator().schedule_periodic(
        measure_start + config.probe_interval, config.probe_interval,
        kProbeLabel, [&] {
          probe_round(series, series.convergence_seconds, states,
                      sim.simulator().now(), [&](std::size_t i) {
                        const auto [s, t] = result.pairs[i];
                        return sim.has_live_route(s, t) &&
                               sim.has_live_route(t, s);
                      });
        });
    sim.run();
    series.control_messages = sim.total_updates_sent();
    series.routes_suppressed = sim.total_routes_suppressed();
    series.routes_reused = sim.total_routes_reused();
    series.stale_retained = sim.total_stale_retained();
    series.stale_expired = sim.total_stale_expired();
    series.fault_stats = sim.injector().stats();
    finalize(series, states);
    return series;
  };

  const auto run_scion = [&](const std::string& name, bool robust) {
    obs::ProfilePhase phase{"churn." + name};
    const auto make_config = [&](const faults::FaultPlan& p) {
      ctrl::BeaconingSimConfig c;
      c.server.algorithm = ctrl::AlgorithmKind::kBaseline;
      c.server.mode = ctrl::BeaconingMode::kCore;
      c.server.storage_limit = kStorageLimit;
      c.server.dissemination_limit = kDisseminationLimit;
      c.server.compute_crypto = false;
      if (robust) {
        c.server.stale_quarantine = true;
        c.server.reorigination = true;
      }
      c.sim_duration = config.sim_duration;
      c.warmup = config.warmup;
      c.seed = config.seed;
      c.faults = p;
      return c;
    };

    ChurnSeries series;
    series.name = name;
    {
      ctrl::BeaconingSim clean{scion_view, make_config(clean_plan)};
      clean.run();
      series.control_messages_clean = clean.total_pcbs_sent();
    }
    ctrl::BeaconingSim sim{scion_view, make_config(plan)};
    std::vector<PairState> states(result.pairs.size());
    const util::TimePoint measure_start =
        util::TimePoint::origin() + config.warmup;
    sim.simulator().schedule_periodic(
        measure_start + config.probe_interval, config.probe_interval,
        kProbeLabel, [&] {
          probe_round(series, series.convergence_seconds, states,
                      sim.simulator().now(), [&](std::size_t i) {
                        const auto [s, t] = result.pairs[i];
                        return scion_pair_live(sim, s, t);
                      });
        });
    sim.run();
    series.control_messages = sim.total_pcbs_sent();
    const ctrl::BeaconServerStats agg = sim.aggregate_stats();
    series.pcbs_quarantined = agg.pcbs_quarantined;
    series.pcbs_revalidated = agg.pcbs_revalidated;
    series.reoriginations = agg.reoriginations;
    if (sim.injector() != nullptr) series.fault_stats = sim.injector()->stats();
    finalize(series, states);
    return series;
  };

  result.series = exec::parallel_map_n(
      5,
      [&](std::size_t i) {
        switch (i) {
          case 0:
            return run_bgp("BGP", /*damping_on=*/false, /*gr_on=*/false);
          case 1:
            return run_bgp("BGP Damping", /*damping_on=*/true, /*gr_on=*/false);
          case 2:
            return run_bgp("BGP GR", /*damping_on=*/false, /*gr_on=*/true);
          case 3:
            return run_scion("SCION Baseline", /*robust=*/false);
          default:
            return run_scion("SCION Robust", /*robust=*/true);
        }
      },
      config.jobs);

  return result;
}

obs::Table churn_table(const ChurnResult& r) {
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
  for (const ChurnSeries& s : r.series) {
    t.row({s.name,
           s.convergence_seconds.empty() ? "(no recoveries)"
                                         : s.convergence_seconds.summary(),
           obs::fmt_u64(s.outages), obs::fmt_f(s.availability, 4),
           obs::fmt_f(s.amplification, 2), obs::fmt_u64(s.routes_suppressed),
           obs::fmt_u64(s.stale_retained), obs::fmt_u64(s.pcbs_quarantined),
           obs::fmt_u64(s.reoriginations)});
  }
  return t;
}

void print_churn(const ChurnResult& r) {
  obs::print_line("");
  obs::print(churn_table(r).to_text());
}

}  // namespace scion::exp
