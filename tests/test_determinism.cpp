// Same-seed reproducibility gate.
//
// Two independent runs of the same configuration must produce byte-identical
// serialized output: resolved path sets, the overhead ledger, and the BGP
// monitor byte counts. This is the end-to-end check behind the simlint
// rules — any wall-clock read, unseeded RNG, or hash-order-dependent
// aggregation in the pipeline shows up here as a diff.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bgp/bgp_sim.hpp"
#include "core/grid_search.hpp"
#include "experiments/fault_response.hpp"
#include "experiments/quality_experiment.hpp"
#include "experiments/scale.hpp"
#include "faults/fault_plan.hpp"
#include "obs/event_profile.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "scion/control_plane_sim.hpp"
#include "topology/generator.hpp"

namespace scion {
namespace {

using util::Duration;

topo::Topology make_world() {
  topo::MultiIsdConfig config;
  config.n_isds = 2;
  config.cores_per_isd = 2;
  config.ases_per_isd = 8;
  config.seed = 77;
  return topo::generate_multi_isd(config);
}

// --- SCION control plane -----------------------------------------------------

svc::ControlPlaneSimConfig scion_config() {
  svc::ControlPlaneSimConfig config;
  config.sim_duration = Duration::minutes(30);
  config.lookups_per_second = 0.5;
  config.link_failures_per_hour = 4.0;
  config.registration_interval = Duration::minutes(15);
  config.seed = 5;
  return config;
}

/// Serializes everything observable about a control-plane run: every
/// resolved path set between every ordered leaf pair, plus the full
/// overhead ledger.
std::string scion_transcript(const topo::Topology& world) {
  svc::ControlPlaneSim sim{world, scion_config()};
  sim.run();

  std::ostringstream out;
  const auto& leaves = sim.leaves();
  for (const topo::AsIndex src : leaves) {
    for (const topo::AsIndex dst : leaves) {
      if (src == dst) continue;
      out << "pair " << src << "->" << dst << "\n";
      for (const auto& path : sim.resolve_paths(src, dst)) {
        out << "  " << svc::to_string(path.kind) << " ases";
        for (const topo::AsIndex as : path.ases) out << ' ' << as;
        out << " links";
        for (const topo::LinkIndex l : path.links) out << ' ' << l;
        out << "\n";
      }
    }
  }
  for (const auto& row : sim.ledger().rows()) {
    out << row.component << ' ' << row.messages << ' ' << row.operations
        << ' ' << row.bytes.value() << ' ' << row.messages_by_scope[0] << ' '
        << row.messages_by_scope[1] << ' ' << row.messages_by_scope[2]
        << "\n";
  }
  out << "lookups " << sim.lookups_performed() << " resolved "
      << sim.paths_resolved() << "\n";
  return std::move(out).str();
}

TEST(Determinism, ControlPlaneRunsAreByteIdentical) {
  const topo::Topology world = make_world();
  const std::string first = scion_transcript(world);
  const std::string second = scion_transcript(world);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(Determinism, TopologyGenerationIsSeedDeterministic) {
  const topo::Topology a = make_world();
  const topo::Topology b = make_world();
  ASSERT_EQ(a.as_count(), b.as_count());
  ASSERT_EQ(a.link_count(), b.link_count());
  for (topo::LinkIndex l = 0; l < a.link_count(); ++l) {
    EXPECT_EQ(a.link(l).a, b.link(l).a);
    EXPECT_EQ(a.link(l).b, b.link(l).b);
    EXPECT_EQ(a.link(l).type, b.link(l).type);
  }
}

// --- BGP ---------------------------------------------------------------------

bgp::BgpSimConfig bgp_config() {
  bgp::BgpSimConfig config;
  config.convergence_window = Duration::minutes(10);
  config.churn_window = Duration::minutes(30);
  config.flaps_per_adjacency_per_day = 4.0;
  config.seed = 9;
  return config;
}

/// Serializes a BGP run: update totals, the monitor's per-origin account,
/// the extrapolated monthly byte counts, and the multipath link-path sets
/// from the monitor towards every origin.
std::string bgp_transcript(const topo::Topology& world) {
  bgp::BgpSim sim{world, bgp_config()};
  const topo::AsIndex monitor = 0;
  sim.add_monitor(monitor);
  sim.run();

  std::ostringstream out;
  out << "updates " << sim.total_updates_sent() << "\n";
  const bgp::MonitorAccount& account = sim.monitor(monitor);
  out << "raw " << account.raw_messages << ' ' << account.raw_bytes << "\n";
  for (const auto& [origin, per] : account.per_origin) {
    out << "origin " << origin << ' ' << per.announce_events << ' '
        << per.withdraw_events << ' ' << per.path_len_sum << ' '
        << per.fixed_share_sum << "\n";
  }
  const std::vector<std::uint32_t> prefix_counts(world.as_count(), 3);
  // hexfloat: bit-exact comparison, not printf rounding.
  out << std::hexfloat << "bgp " << sim.monthly_bgp_bytes(monitor, prefix_counts)
      << " bgpsec " << sim.monthly_bgpsec_bytes(monitor, prefix_counts) << "\n";
  for (const bgp::Prefix origin : sim.origins()) {
    if (origin == monitor) continue;
    out << "paths to " << origin << "\n";
    for (const auto& path : sim.bgp_link_paths(monitor, origin)) {
      out << " ";
      for (const topo::LinkIndex l : path) out << ' ' << l;
      out << "\n";
    }
  }
  return std::move(out).str();
}

TEST(Determinism, BgpRunsAreByteIdentical) {
  const topo::Topology world = make_world();
  const std::string first = bgp_transcript(world);
  const std::string second = bgp_transcript(world);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --- fault injection ---------------------------------------------------------

/// A deliberately busy scenario: stochastic flaps, message loss, latency
/// jitter, and scheduled one-shot events all at once. Every stochastic
/// draw flows through the plan-seeded RNG, so two runs must agree on every
/// fault, every lost message, and every jittered delivery.
faults::FaultPlan stochastic_plan() {
  faults::FaultPlan plan;
  plan.seed = 31;
  plan.loss_probability = 0.02;
  plan.jitter_max = Duration::milliseconds(3);
  faults::FlapProcess flap;
  flap.rate_per_hour = 40.0;
  flap.downtime_min = Duration::seconds(20);
  flap.downtime_max = Duration::minutes(2);
  plan.flaps.push_back(flap);
  plan.events.push_back(faults::Event{faults::Event::Kind::kLinkDown, 2,
                                      Duration::minutes(2),
                                      Duration::minutes(1)});
  plan.events.push_back(faults::Event{faults::Event::Kind::kNodeDown, 5,
                                      Duration::minutes(5),
                                      Duration::minutes(2)});
  plan.events.push_back(faults::Event{faults::Event::Kind::kIsdPartition, 2,
                                      Duration::minutes(8),
                                      Duration::minutes(1)});
  return plan;
}

/// Control-plane transcript under the stochastic scenario, widened with the
/// fault/drop accounting so a divergence anywhere in the injector, the
/// network failure surface, or the revocation reaction shows up.
std::string faulted_transcript(const topo::Topology& world) {
  svc::ControlPlaneSimConfig config = scion_config();
  config.link_failures_per_hour = 0.0;  // churn comes from the plan
  config.faults = stochastic_plan();
  svc::ControlPlaneSim sim{world, config};
  sim.run();

  std::ostringstream out;
  for (const auto& row : sim.ledger().rows()) {
    out << row.component << ' ' << row.messages << ' ' << row.bytes.value()
        << "\n";
  }
  const faults::FaultInjectorStats& fs = sim.injector().stats();
  out << "faults " << fs.link_down_events << ' ' << fs.link_up_events << ' '
      << fs.node_down_events << ' ' << fs.node_up_events << ' ' << fs.flaps
      << ' ' << fs.partitions << ' ' << fs.events_skipped << "\n";
  const sim::DropStats& drops = sim.network().drop_stats();
  out << "drops " << drops.link_down << ' ' << drops.loss << ' '
      << drops.node_down << ' ' << drops.in_flight << "\n";
  return std::move(out).str();
}

TEST(Determinism, FaultedRunsAreByteIdentical) {
  const topo::Topology world = make_world();
  const std::string first = faulted_transcript(world);
  const std::string second = faulted_transcript(world);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // The scenario actually did something (the comparison is not vacuous).
  EXPECT_NE(first.find("faults "), std::string::npos);
  EXPECT_EQ(first.find("faults 0 0 0 0 0 0"), std::string::npos);
}

// Fault telemetry is write-only like all other categories: tracing the
// fault stream must not perturb the injected fault sequence.
TEST(Determinism, FaultTelemetryOnOffRunsAreByteIdentical) {
  const topo::Topology world = make_world();

  obs::set_trace_sink(nullptr);
  obs::MetricsRegistry::global().reset();
  const std::string plain = faulted_transcript(world);

  std::ostringstream trace;
  obs::TraceSink sink{trace};
  sink.enable_all();
  obs::set_trace_sink(&sink);
  obs::MetricsRegistry::global().reset();
  const std::string traced = faulted_transcript(world);
  obs::set_trace_sink(nullptr);

  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, traced);
  EXPECT_GT(sink.events_written(), 0u);
  // The fault category specifically was exercised.
  EXPECT_NE(trace.str().find("\"cat\":\"fault\""), std::string::npos);
  obs::MetricsRegistry::global().reset();
}

// --- telemetry ---------------------------------------------------------------

// The telemetry layer is write-only: recording metrics, streaming traces,
// and profiling phases must not change a single byte of simulation output.
TEST(Determinism, TelemetryOnOffRunsAreByteIdentical) {
  const topo::Topology world = make_world();

  // Both runs record metrics; only the trace sink differs. First no sink.
  obs::set_trace_sink(nullptr);
  obs::MetricsRegistry::global().reset();
  obs::PhaseProfiler::global().reset();
  const std::string plain = scion_transcript(world) + bgp_transcript(world);

  // Then every category traced.
  std::ostringstream trace;
  obs::TraceSink sink{trace};
  sink.enable_all();
  obs::set_trace_sink(&sink);
  obs::MetricsRegistry::global().reset();
  const std::string traced = scion_transcript(world) + bgp_transcript(world);
  obs::set_trace_sink(nullptr);

  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, traced);
  // The instrumented run actually recorded telemetry (the comparison above
  // is not vacuous).
  EXPECT_GT(sink.events_written(), 0u);
  const auto metrics =
      obs::parse_json(obs::MetricsRegistry::global().to_json());
  EXPECT_GT(
      metrics->find("counters")->find("simnet.messages_sent")->as_number(),
      0.0);
  obs::MetricsRegistry::global().reset();
}

// Event-level cost attribution is write-only like the rest of the telemetry
// layer: profiling every event (counts, allocations, queue depth, handler
// wall time) must not change a single byte of simulation output.
TEST(Determinism, EventProfilingOnOffRunsAreByteIdentical) {
  const topo::Topology world = make_world();

  obs::EventProfiler::global().set_enabled(false);
  obs::EventProfiler::global().reset_counters();
  const std::string off = scion_transcript(world) + bgp_transcript(world);
  EXPECT_EQ(obs::EventProfiler::global().total_events(), 0u);

  obs::EventProfiler::global().set_enabled(true);
  obs::EventProfiler::global().reset_counters();
  const std::string on = scion_transcript(world) + bgp_transcript(world);

  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, on);
  // The profiled run actually attributed events (not a vacuous comparison),
  // and a second profiled run reproduces the deterministic counters exactly.
  EXPECT_GT(obs::EventProfiler::global().total_events(), 0u);
  EXPECT_GT(obs::EventProfiler::global().attributed_events(), 0u);
  const std::uint64_t total = obs::EventProfiler::global().total_events();
  const std::uint64_t attributed =
      obs::EventProfiler::global().attributed_events();
  const auto timeline = obs::EventProfiler::global().queue_timeline();
  obs::EventProfiler::global().reset_counters();
  const std::string again = scion_transcript(world) + bgp_transcript(world);
  EXPECT_EQ(again, on);
  EXPECT_EQ(obs::EventProfiler::global().total_events(), total);
  EXPECT_EQ(obs::EventProfiler::global().attributed_events(), attributed);
  const auto timeline_again = obs::EventProfiler::global().queue_timeline();
  ASSERT_EQ(timeline_again.size(), timeline.size());
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    EXPECT_EQ(timeline_again[i].t_ns, timeline[i].t_ns);
    EXPECT_EQ(timeline_again[i].depth, timeline[i].depth);
  }
  obs::EventProfiler::global().reset_counters();
  obs::MetricsRegistry::global().reset();
}

// Tracing must also be insensitive to the *filter*: dropping events cannot
// change what the simulation computes.
// --- parallel execution ------------------------------------------------------

exp::CoreNetworks small_core_networks() {
  exp::Scale scale;
  scale.internet_ases = 120;
  scale.n_tier1 = 4;
  scale.core_ases = 16;
  scale.core_isds = 4;
  scale.seed = 7;
  const topo::Topology internet = exp::build_internet(scale);
  return exp::build_core_networks(scale, internet);
}

/// Full byte-level transcript of a quality-experiment run at the given job
/// count: the raw result, the rendered Fig. 6b table, the metrics registry
/// JSON, and the complete trace stream.
std::string quality_transcript(const exp::CoreNetworks& nets,
                               std::size_t jobs) {
  obs::MetricsRegistry::global().reset();
  std::ostringstream trace;
  obs::TraceSink sink{trace};
  sink.enable_all();
  obs::set_trace_sink(&sink);

  exp::QualityConfig config;
  config.sampled_pairs = 25;
  config.sim_duration = Duration::minutes(40);
  config.seed = 3;
  config.jobs = jobs;
  const exp::QualityResult result =
      exp::run_quality_experiment(nets.bgp_view, nets.scion_view, config);
  obs::set_trace_sink(nullptr);

  std::ostringstream out;
  for (const auto& [s, t] : result.pairs) out << s << '-' << t << ' ';
  out << "\nopt";
  for (const int v : result.optimum) out << ' ' << v;
  out << '\n';
  for (const auto& series : result.series) {
    out << series.name << ':';
    for (const int v : series.values) out << ' ' << v;
    // hexfloat: bit-exact comparison, not printf rounding.
    out << " frac=" << std::hexfloat << result.fraction_of_optimal(series)
        << '\n';
  }
  out << exp::capacity_table(result).to_text();
  out << obs::MetricsRegistry::global().to_json() << '\n';
  out << trace.str();
  return std::move(out).str();
}

// The tentpole contract of the exec layer: the figure-producing experiment
// emits byte-identical results, metrics, and traces no matter how many
// workers ran it.
TEST(Determinism, QualityExperimentIsByteIdenticalAcrossJobCounts) {
  const exp::CoreNetworks nets = small_core_networks();
  const std::string serial = quality_transcript(nets, 1);
  ASSERT_FALSE(serial.empty());
  // Every series produced a value per sampled pair.
  EXPECT_NE(serial.find("SCION Diversity"), std::string::npos);
  EXPECT_EQ(quality_transcript(nets, 8), serial);
  obs::MetricsRegistry::global().reset();
}

std::string grid_search_transcript(const topo::Topology& scion_view,
                                   std::size_t jobs) {
  ctrl::GridSearchConfig config;
  config.sim_duration = Duration::minutes(20);
  config.sampled_pairs = 12;
  config.coarse_alpha = {0.5, 4.0};
  config.coarse_beta = {1.0, 3.0};
  config.coarse_gamma = {1.0, 2.0};
  config.seed = 11;
  config.jobs = jobs;
  const ctrl::GridSearchResult result =
      ctrl::grid_search_diversity_params(scion_view, config);

  std::ostringstream out;
  out << std::hexfloat;
  out << "baseline " << result.baseline_bytes.value() << '\n';
  for (const ctrl::EvaluatedPoint& p : result.evaluated) {
    out << p.params.alpha << ' ' << p.params.beta << ' ' << p.params.gamma
        << " q=" << p.quality << " o=" << p.overhead << " obj=" << p.objective
        << '\n';
  }
  out << "best " << result.best.params.alpha << ' ' << result.best.params.beta
      << ' ' << result.best.params.gamma << ' ' << result.best.objective
      << '\n';
  return std::move(out).str();
}

TEST(Determinism, GridSearchIsByteIdenticalAcrossJobCounts) {
  const exp::CoreNetworks nets = small_core_networks();
  const std::string serial = grid_search_transcript(nets.scion_view, 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(grid_search_transcript(nets.scion_view, 8), serial);
}

/// Full byte-level transcript of a churn-experiment run at the given job
/// count: every series' counters, the rendered table, the metrics registry
/// JSON, and the complete trace stream. Five series run concurrently here,
/// so any shared mutable state or cross-series RNG coupling shows up as a
/// jobs-dependent diff.
std::string churn_transcript(const exp::CoreNetworks& nets, std::size_t jobs) {
  obs::MetricsRegistry::global().reset();
  std::ostringstream trace;
  obs::TraceSink sink{trace};
  sink.enable_all();
  obs::set_trace_sink(&sink);

  exp::FaultResponseConfig config;
  config.sampled_pairs = 12;
  config.sim_duration = Duration::minutes(20);
  config.warmup = Duration::minutes(10);
  config.probe_interval = Duration::seconds(30);
  config.seed = 13;
  config.jobs = jobs;
  const exp::FaultResponseResult result = exp::run_churn_experiment(
      nets.bgp_view, nets.scion_view, config, /*link_fraction=*/0.5);
  obs::set_trace_sink(nullptr);

  std::ostringstream out;
  for (const auto& [s, t] : result.pairs) out << s << '-' << t << ' ';
  out << '\n' << std::hexfloat;
  for (const exp::FaultResponseSeries& s : result.series) {
    out << s.name << " conv=" << s.lag_seconds.summary()
        << " outages=" << s.outages << " rec=" << s.recovered << '/'
        << s.unrecovered << " avail=" << s.availability
        << " amp=" << s.amplification << " msgs=" << s.control_messages << '/'
        << s.control_messages_clean << " sup=" << s.routes_suppressed << '/'
        << s.routes_reused << " stale=" << s.stale_retained << '/'
        << s.stale_expired << " quar=" << s.pcbs_quarantined << '/'
        << s.pcbs_revalidated << " reorig=" << s.reoriginations
        << " churn=" << s.fault_stats.churn_events
        << " restarts=" << s.fault_stats.session_restarts << '\n';
  }
  out << exp::churn_table(result).to_text();
  out << obs::MetricsRegistry::global().to_json() << '\n';
  out << trace.str();
  return std::move(out).str();
}

// The churn experiment inherits the exec-layer contract: byte-identical
// results, metrics, and traces no matter how many workers ran the series.
TEST(Determinism, ChurnExperimentIsByteIdenticalAcrossJobCounts) {
  const exp::CoreNetworks nets = small_core_networks();
  const std::string serial = churn_transcript(nets, 1);
  ASSERT_FALSE(serial.empty());
  EXPECT_NE(serial.find("BGP Damping"), std::string::npos);
  EXPECT_NE(serial.find("SCION Robust"), std::string::npos);
  EXPECT_EQ(churn_transcript(nets, 8), serial);
  obs::MetricsRegistry::global().reset();
}

// Tracing must also be insensitive to the *filter*: dropping events cannot
// change what the simulation computes.
TEST(Determinism, TraceFilterDoesNotPerturbSimulation) {
  const topo::Topology world = make_world();

  std::ostringstream all_trace;
  obs::TraceSink all_sink{all_trace};
  all_sink.enable_all();
  obs::set_trace_sink(&all_sink);
  obs::MetricsRegistry::global().reset();
  const std::string with_all = bgp_transcript(world);

  std::ostringstream none_trace;
  obs::TraceSink none_sink{none_trace};
  none_sink.disable_all();
  obs::set_trace_sink(&none_sink);
  obs::MetricsRegistry::global().reset();
  const std::string with_none = bgp_transcript(world);
  obs::set_trace_sink(nullptr);

  EXPECT_EQ(with_all, with_none);
  EXPECT_EQ(none_sink.events_written(), 0u);
  obs::MetricsRegistry::global().reset();
}

}  // namespace
}  // namespace scion
