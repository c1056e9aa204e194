// Allocation budgets and event attribution for the hot simulation loops:
// the repo's one gate on per-event cost.
//
// Each gate runs a small fixed-seed micro-run of one simulation pipeline,
// measures operator-new calls with the obs/alloc_track counting
// allocator, and divides by the run's event count (PCBs received, BGP
// updates sent, ...). Allocation counts, unlike wall times, are
// deterministic for a fixed seed, so the budgets below gate hard: a change
// that adds one allocation per event to a hot loop fails here with the
// exact per-event figure and the top allocating event labels in the message.
// The same micro-run also checks that the event profiler attributes every
// event to a named label, so a new unlabeled schedule site fails too.
//
// Each budget sits below "measured + one allocation per event" (GCC 12 /
// libstdc++ is the only toolchain the counts are calibrated on). If a
// legitimate change raises a count, re-measure (the failure message prints
// the observed allocs/event), keep that rule, and justify the new budget in
// the commit; do not blindly bump.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bgp/bgp_sim.hpp"
#include "core/beaconing_sim.hpp"
#include "faults/fault_plan.hpp"
#include "obs/alloc_track.hpp"
#include "obs/event_profile.hpp"
#include "scion/control_plane_sim.hpp"
#include "topology/generator.hpp"

namespace scion {
namespace {

using util::Duration;

// --- Budgets (allocs per event) --------------------------------------------------
//
// Measured at the fixed seeds below. The headroom is tight on purpose: it
// is less than one allocation per event, so reintroducing a per-event
// string, a by-value PCB copy, or a per-UPDATE message copy fails the gate.

// Beaconing: per PCB received at a beacon server (receive -> verify ->
// resolve -> score -> store admission). Measured 3.90.
constexpr double kBeaconingBudget = 4.4;
// Diversity beaconing: per PCB received, on the same micro-run with the
// diversity algorithm and diversity-aware storage (selection, sent records,
// link counters and eviction on top of receive). Measured 10.74.
constexpr double kDiversityBeaconingBudget = 11.2;
// Control plane: per control-plane event (PCBs received by core+intra
// servers plus endpoint lookups). The run has 894 lookups and 306 received
// PCBs, and lookups make 24,795 of its 26,514 allocations (segment lists
// and the paths a lookup returns), so one extra allocation per lookup adds
// ~0.75 per event and one per received PCB ~0.26. Measured 22.10.
constexpr double kControlPlaneBudget = 22.3;
// BGP: per update sent (handle_update -> reevaluate -> flush -> deliver).
// The RIBs are dense tables by origin slot, allocated once per speaker, so
// what is left per UPDATE is the export path, the message and its prefix
// vector. Measured 4.884.
constexpr double kBgpBudget = 5.3;
// BGP under sustained churn with flap damping + graceful restart enabled:
// the survival bookkeeping (lazy penalty decay, reuse timers, stale
// marking/sweeps) must stay O(1) amortized per UPDATE — the damping table
// is allocated once per speaker at its first flap and reuse/GR timers once
// per episode, not per update. Measured 4.928.
constexpr double kChurnBgpBudget = 5.4;

// --- Micro-runs ------------------------------------------------------------------

template <typename Fn>
std::pair<std::uint64_t, std::uint64_t> count_allocs(Fn&& fn) {
  const std::uint64_t a0 = obs::thread_allocs();
  const std::uint64_t b0 = obs::thread_alloc_bytes();
  fn();
  return {obs::thread_allocs() - a0, obs::thread_alloc_bytes() - b0};
}

// Runs one micro-run on a fresh event profile and returns its allocation
// count. Every event the run executes must carry a named label; the fresh
// profile also makes a budget breach name this run's top allocating labels.
template <typename Fn>
std::uint64_t profiled_run(Fn&& fn) {
  auto& profiler = obs::EventProfiler::global();
  profiler.reset_counters();
  const std::uint64_t allocs = count_allocs(std::forward<Fn>(fn)).first;
  EXPECT_GT(profiler.total_events(), 0u);
  EXPECT_EQ(profiler.attributed_events(), profiler.total_events())
      << profiler.total_events() - profiler.attributed_events()
      << " events ran under the default (unlabeled) event label";
  return allocs;
}

void expect_within_budget(std::string_view phase, std::uint64_t allocs,
                          std::uint64_t events, double budget) {
  ASSERT_GT(events, 0u);
  const auto r = obs::check_alloc_budget(phase, allocs, events, budget);
  EXPECT_TRUE(r.ok) << r.message;
}

topo::Topology beaconing_world() {
  topo::ScionLabConfig config;
  config.n_cores = 10;
  config.extra_edge_fraction = 0.3;
  config.seed = 5;
  return topo::generate_scionlab(config);
}

topo::Topology multi_isd_world() {
  topo::MultiIsdConfig config;
  config.n_isds = 2;
  config.cores_per_isd = 2;
  config.ases_per_isd = 8;
  config.seed = 77;
  return topo::generate_multi_isd(config);
}

// --- Gates -----------------------------------------------------------------------

TEST(AllocBudget, CountingAllocatorSeesThisThreadsAllocations) {
  const auto [allocs, bytes] = count_allocs([] {
    auto block = std::make_unique<char[]>(4096);
    // Defeat any heroic dead-allocation elimination.
    block[0] = 1;
    ASSERT_EQ(block[0], 1);
  });
  EXPECT_GE(allocs, 1u);
  EXPECT_GE(bytes, 4096u);
}

TEST(AllocBudget, BeaconingStaysWithinBudget) {
  const topo::Topology world = beaconing_world();
  ctrl::BeaconingSimConfig config;
  config.server.interval = Duration::minutes(10);
  config.server.pcb_lifetime = Duration::hours(6);
  config.sim_duration = Duration::hours(1);
  config.seed = 42;

  ctrl::BeaconingSim sim{world, config};
  const std::uint64_t allocs = profiled_run([&] { sim.run(); });
  expect_within_budget("beaconing", allocs,
                       sim.aggregate_stats().pcbs_received, kBeaconingBudget);
}

TEST(AllocBudget, DiversityBeaconingStaysWithinBudget) {
  const topo::Topology world = beaconing_world();
  ctrl::BeaconingSimConfig config;
  config.server.algorithm = ctrl::AlgorithmKind::kDiversity;
  config.server.store_policy = ctrl::StorePolicy::kDiversityAware;
  config.server.interval = Duration::minutes(10);
  config.server.pcb_lifetime = Duration::hours(6);
  config.sim_duration = Duration::hours(1);
  config.seed = 42;

  ctrl::BeaconingSim sim{world, config};
  const std::uint64_t allocs = profiled_run([&] { sim.run(); });
  expect_within_budget("diversity-beaconing", allocs,
                       sim.aggregate_stats().pcbs_received,
                       kDiversityBeaconingBudget);
}

TEST(AllocBudget, ControlPlaneStaysWithinBudget) {
  const topo::Topology world = multi_isd_world();
  svc::ControlPlaneSimConfig config;
  config.sim_duration = Duration::minutes(30);
  config.lookups_per_second = 0.5;
  config.link_failures_per_hour = 4.0;
  config.registration_interval = Duration::minutes(15);
  config.seed = 5;

  svc::ControlPlaneSim sim{world, config};
  const std::uint64_t allocs = profiled_run([&] { sim.run(); });
  std::uint64_t events = sim.lookups_performed();
  for (topo::AsIndex as = 0; as < world.as_count(); ++as) {
    if (const auto* s = sim.core_server(as)) events += s->stats().pcbs_received;
    if (const auto* s = sim.intra_server(as)) {
      events += s->stats().pcbs_received;
    }
  }
  expect_within_budget("control-plane", allocs, events, kControlPlaneBudget);
}

TEST(AllocBudget, BgpStaysWithinBudget) {
  const topo::Topology world = multi_isd_world();
  bgp::BgpSimConfig config;
  config.convergence_window = Duration::minutes(10);
  config.churn_window = Duration::minutes(30);
  config.flaps_per_adjacency_per_day = 4.0;
  config.seed = 9;

  bgp::BgpSim sim{world, config};
  sim.add_monitor(0);
  const std::uint64_t allocs = profiled_run([&] { sim.run(); });
  expect_within_budget("bgp", allocs, sim.total_updates_sent(), kBgpBudget);
}

TEST(AllocBudget, ChurnSurvivalMechanismsStayWithinBudget) {
  const topo::Topology world = multi_isd_world();
  bgp::BgpSimConfig config;
  config.convergence_window = Duration::minutes(10);
  config.churn_window = Duration::minutes(30);
  config.flaps_per_adjacency_per_day = 0.0;  // churn comes from the plan
  config.seed = 9;
  config.damping.enabled = true;
  config.graceful_restart.enabled = true;
  config.faults.seed = 11;
  faults::ChurnSpec spec;
  spec.up_min = Duration::minutes(1);
  spec.up_max = Duration::minutes(5);
  spec.down_min = Duration::seconds(30);
  spec.down_max = Duration::minutes(2);
  spec.duration = Duration::minutes(30);
  // Churn only the provider-customer edges and restart sessions on the
  // (never-churned) core links 0 and 1, so the restarted adjacency is
  // deterministically up — a restart landing on a churned-down session is
  // a no-op and would leave the GR path unexercised.
  spec.links = faults::LinkClass::kProviderCustomer;
  config.faults.churn.push_back(spec);
  config.faults.events.push_back(faults::Event{
      faults::Event::Kind::kSessionRestart, 0, Duration::minutes(5),
      Duration::seconds(90)});
  config.faults.events.push_back(faults::Event{
      faults::Event::Kind::kSessionRestart, 1, Duration::minutes(15),
      Duration::seconds(90)});

  bgp::BgpSim sim{world, config};
  const std::uint64_t allocs = profiled_run([&] { sim.run(); });
  // The gate is about the mechanisms, so they must actually have engaged.
  EXPECT_GT(sim.total_routes_suppressed(), 0u);
  EXPECT_GT(sim.total_stale_retained(), 0u);

  expect_within_budget("bgp-churn-survival", allocs, sim.total_updates_sent(),
                       kChurnBgpBudget);
}

// --- Failure-message contract ----------------------------------------------------

// A deliberately-exceeded budget must name the phase and the per-event
// count — that message is all a CI log shows, so its contents are part of
// the gate's contract.
TEST(AllocBudget, ExceededBudgetNamesPhaseAndPerEventCount) {
  const auto r = obs::check_alloc_budget("beaconing", 1000, 100, 2.0);
  ASSERT_FALSE(r.ok);
  EXPECT_DOUBLE_EQ(r.per_event, 10.0);
  EXPECT_NE(r.message.find("beaconing"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("10.000 allocs/event"), std::string::npos)
      << r.message;
  EXPECT_NE(r.message.find("budget 2.000"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("1000 allocs"), std::string::npos) << r.message;
  EXPECT_NE(r.message.find("100 events"), std::string::npos) << r.message;
}

// A breach must also point at its handler: the message names the top-3
// allocating event labels (from the event profiler) in allocs-descending
// order, so a CI log alone is enough to locate the offending event kind.
TEST(AllocBudget, ExceededBudgetNamesTopAllocatingEventLabels) {
  auto& profiler = obs::EventProfiler::global();
  profiler.reset_counters();
  const obs::EventLabel heavy = profiler.intern("test.budget_heavy");
  const obs::EventLabel mid = profiler.intern("test.budget_mid");
  const obs::EventLabel light = profiler.intern("test.budget_light");
  const obs::EventLabel spare = profiler.intern("test.budget_spare");
  std::vector<obs::LabelStats> stats(profiler.label_count());
  stats[heavy.id()] = obs::LabelStats{10, 500, 8000, 0};
  stats[mid.id()] = obs::LabelStats{10, 200, 3200, 0};
  stats[light.id()] = obs::LabelStats{10, 100, 1600, 0};
  stats[spare.id()] = obs::LabelStats{10, 7, 112, 0};
  profiler.merge(stats, {});

  const auto r = obs::check_alloc_budget("label-contract", 1000, 100, 2.0);
  profiler.reset_counters();
  ASSERT_FALSE(r.ok);
  const std::string& msg = r.message;
  ASSERT_NE(msg.find("top allocating event labels:"), std::string::npos)
      << msg;
  const auto heavy_at = msg.find("test.budget_heavy (500 allocs)");
  const auto mid_at = msg.find("test.budget_mid (200 allocs)");
  const auto light_at = msg.find("test.budget_light (100 allocs)");
  ASSERT_NE(heavy_at, std::string::npos) << msg;
  ASSERT_NE(mid_at, std::string::npos) << msg;
  ASSERT_NE(light_at, std::string::npos) << msg;
  EXPECT_LT(heavy_at, mid_at) << msg;
  EXPECT_LT(mid_at, light_at) << msg;
  // Top-3 means the fourth-heaviest label stays out of the message.
  EXPECT_EQ(msg.find("test.budget_spare"), std::string::npos) << msg;
}

TEST(AllocBudget, RealRunExceedsZeroBudget) {
  // An impossible budget of 0 allocs/event must trip on any real run,
  // proving the gate is live (not vacuously green).
  const auto [allocs, bytes] = count_allocs([] {
    auto v = std::make_unique<int>(7);
    ASSERT_EQ(*v, 7);
  });
  const auto r = obs::check_alloc_budget("deliberate-exceed", allocs, 1, 0.0);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.message.find("deliberate-exceed"), std::string::npos)
      << r.message;
}

TEST(AllocBudget, ZeroEventsGatesAbsoluteAllocs) {
  EXPECT_TRUE(obs::check_alloc_budget("idle", 0, 0, 0.0).ok);
  EXPECT_FALSE(obs::check_alloc_budget("idle", 3, 0, 0.0).ok);
}

}  // namespace
}  // namespace scion
