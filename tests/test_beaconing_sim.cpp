#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/beaconing_sim.hpp"
#include "topology/generator.hpp"

namespace scion::ctrl {
namespace {

using util::Duration;

BeaconingSimConfig quick_config(AlgorithmKind algorithm) {
  BeaconingSimConfig config;
  config.server.algorithm = algorithm;
  config.server.interval = Duration::minutes(10);
  config.server.pcb_lifetime = Duration::hours(6);
  config.sim_duration = Duration::hours(2);
  config.seed = 42;
  return config;
}

topo::Topology small_core() {
  topo::ScionLabConfig config;
  config.n_cores = 12;
  config.extra_edge_fraction = 0.3;
  config.seed = 5;
  return topo::generate_scionlab(config);
}

TEST(BeaconingSim, EveryAsLearnsPathsToEveryOrigin) {
  const topo::Topology t = small_core();
  BeaconingSim sim{t, quick_config(AlgorithmKind::kBaseline)};
  sim.run();
  for (topo::AsIndex a = 0; a < t.as_count(); ++a) {
    for (topo::AsIndex b = 0; b < t.as_count(); ++b) {
      if (a == b) continue;
      EXPECT_FALSE(sim.paths_at(a, t.as_id(b)).empty())
          << t.as_id(a).to_string() << " has no path from origin "
          << t.as_id(b).to_string();
    }
  }
}

TEST(BeaconingSim, DiversityAlsoReachesEveryOrigin) {
  const topo::Topology t = small_core();
  BeaconingSim sim{t, quick_config(AlgorithmKind::kDiversity)};
  sim.run();
  for (topo::AsIndex a = 0; a < t.as_count(); ++a) {
    for (topo::AsIndex b = 0; b < t.as_count(); ++b) {
      if (a == b) continue;
      EXPECT_FALSE(sim.paths_at(a, t.as_id(b)).empty());
    }
  }
}

TEST(BeaconingSim, StoredPathsAreConsistentWithTopology) {
  const topo::Topology t = small_core();
  BeaconingSim sim{t, quick_config(AlgorithmKind::kBaseline)};
  sim.run();
  for (topo::AsIndex a = 0; a < t.as_count(); ++a) {
    for (topo::AsIndex b = 0; b < t.as_count(); ++b) {
      if (a == b) continue;
      for (const auto& path : sim.paths_at(a, t.as_id(b))) {
        ASSERT_FALSE(path.empty());
        // The path walks from origin b to receiver a over adjacent links.
        topo::AsIndex cur = b;
        std::set<topo::LinkIndex> seen;
        for (const topo::LinkIndex l : path) {
          EXPECT_TRUE(seen.insert(l).second) << "no link repeats in a path";
          cur = t.neighbor(l, cur);
        }
        EXPECT_EQ(cur, a);
      }
    }
  }
}

TEST(BeaconingSim, DiversityUsesFarLessBandwidthThanBaseline) {
  const topo::Topology t = small_core();
  BeaconingSim baseline{t, quick_config(AlgorithmKind::kBaseline)};
  baseline.run();
  BeaconingSim diversity{t, quick_config(AlgorithmKind::kDiversity)};
  diversity.run();
  EXPECT_LT(diversity.total_bytes() * 4, baseline.total_bytes())
      << "diversity must cut beaconing overhead drastically (paper: >100x "
         "at scale; small topologies show at least several-fold)";
}

TEST(BeaconingSim, WarmupExcludedFromAccounting) {
  const topo::Topology t = small_core();
  auto config = quick_config(AlgorithmKind::kBaseline);
  config.sim_duration = Duration::hours(1);
  BeaconingSim cold{t, config};
  cold.run();

  auto both = config;
  both.sim_duration = Duration::hours(2);
  BeaconingSim cold2h{t, both};
  cold2h.run();

  config.warmup = Duration::hours(1);
  BeaconingSim warm{t, config};
  warm.run();
  // The warm run simulates 2 h but only counts the second hour: strictly
  // less than the full 2 h accounting, and at least the cold first hour
  // (stores are fuller, so a steady hour carries at least as much).
  EXPECT_LT(warm.total_bytes(), cold2h.total_bytes());
  EXPECT_GE(warm.total_bytes().value(), cold.total_bytes().value() / 2);
  EXPECT_EQ(warm.total_bytes(), warm.aggregate_stats().bytes_sent)
      << "server counters reset together with link counters";
}

TEST(BeaconingSim, DiversitySteadyStateOrdersOfMagnitudeBelowBaseline) {
  // The paper's headline: measured in the periodic regime (after one PCB
  // lifetime of warm-up), the diversity algorithm's beaconing overhead is
  // orders of magnitude below the baseline's.
  topo::HierarchyConfig h;
  h.n_ases = 200;
  h.n_roots = 6;
  h.seed = 12;
  const topo::Topology internet = topo::generate_hierarchy(h);
  const topo::Topology core =
      topo::with_all_core_links(topo::make_core_network(internet, 16, 2));

  auto run_bytes = [&](AlgorithmKind algorithm) {
    BeaconingSimConfig config;
    config.server.algorithm = algorithm;
    config.server.compute_crypto = false;
    if (algorithm == AlgorithmKind::kDiversity) {
      config.server.store_policy = StorePolicy::kDiversityAware;
    }
    config.warmup = config.server.pcb_lifetime;  // one lifetime
    config.sim_duration = Duration::hours(6);
    config.seed = 4;
    BeaconingSim sim{core, config};
    sim.run();
    return sim.total_bytes();
  };

  const std::uint64_t baseline = run_bytes(AlgorithmKind::kBaseline).value();
  const std::uint64_t diversity = run_bytes(AlgorithmKind::kDiversity).value();
  EXPECT_GT(baseline, diversity * 20)
      << "steady-state reduction must be >20x (paper: two orders at scale); "
      << "baseline=" << baseline << " diversity=" << diversity;
  EXPECT_GT(diversity, 0u) << "connectivity maintenance must keep running";
}

TEST(BeaconingSim, ByteAccountingConsistent) {
  const topo::Topology t = small_core();
  BeaconingSim sim{t, quick_config(AlgorithmKind::kBaseline)};
  sim.run();
  util::Bytes interface_total{};
  for (const InterfaceUsage& usage : sim.interface_usage()) {
    interface_total += usage.bytes;
  }
  EXPECT_EQ(interface_total, sim.total_bytes());
  EXPECT_EQ(sim.aggregate_stats().bytes_sent, sim.total_bytes())
      << "server-side and link-side accounting must agree";
}

TEST(BeaconingSim, ReceivedAtMostSent) {
  const topo::Topology t = small_core();
  BeaconingSim sim{t, quick_config(AlgorithmKind::kBaseline)};
  sim.run();
  const BeaconServerStats agg = sim.aggregate_stats();
  EXPECT_LE(agg.pcbs_received, agg.pcbs_sent);
  // With all links up and latencies far below the horizon, nearly all
  // arrive (the tail in flight at the end may be cut off).
  EXPECT_GT(agg.pcbs_received, agg.pcbs_sent * 9 / 10);
  EXPECT_EQ(agg.verify_failures, 0u);
  EXPECT_EQ(agg.resolve_failures, 0u);
}

TEST(BeaconingSim, DeterministicForSeed) {
  const topo::Topology t = small_core();
  BeaconingSim a{t, quick_config(AlgorithmKind::kDiversity)};
  a.run();
  BeaconingSim b{t, quick_config(AlgorithmKind::kDiversity)};
  b.run();
  EXPECT_EQ(a.total_bytes(), b.total_bytes());
  EXPECT_EQ(a.total_pcbs_sent(), b.total_pcbs_sent());
  for (topo::AsIndex i = 0; i < t.as_count(); ++i) {
    EXPECT_EQ(a.server(i).stats().pcbs_sent, b.server(i).stats().pcbs_sent);
  }
}

TEST(BeaconingSim, StorageLimitBoundsStoredPaths) {
  const topo::Topology t = small_core();
  auto config = quick_config(AlgorithmKind::kBaseline);
  config.server.storage_limit = 3;
  BeaconingSim sim{t, config};
  sim.run();
  for (topo::AsIndex a = 0; a < t.as_count(); ++a) {
    for (topo::AsIndex b = 0; b < t.as_count(); ++b) {
      if (a == b) continue;
      EXPECT_LE(sim.paths_at(a, t.as_id(b)).size(), 3u);
    }
  }
}

// With the staleness quarantine on, a downed link's endpoints keep the PCBs
// riding it but paths_at() no longer offers them.
TEST(BeaconingSim, PathsAtSkipsQuarantinedEntries) {
  const topo::Topology t = small_core();
  auto config = quick_config(AlgorithmKind::kBaseline);
  config.server.stale_quarantine = true;
  config.sim_duration = Duration::hours(1);
  // Down for the last 10 minutes, well inside the staleness timeout.
  const topo::LinkIndex down_link = 0;
  config.faults.events.push_back(faults::Event{
      faults::Event::Kind::kLinkDown, down_link, Duration::minutes(50),
      Duration::zero()});
  BeaconingSim sim{t, config};
  sim.run();

  std::size_t quarantined = 0;
  for (const topo::AsIndex at : {t.link(down_link).a, t.link(down_link).b}) {
    for (topo::AsIndex origin = 0; origin < t.as_count(); ++origin) {
      if (origin == at) continue;
      std::vector<std::vector<topo::LinkIndex>> fresh;
      for (const StoredPcb& s : sim.server(at).store().for_origin(
               t.as_id(origin))) {
        const bool rides = std::find(s.links.begin(), s.links.end(),
                                     down_link) != s.links.end();
        EXPECT_EQ(s.stale(), rides);
        if (s.stale()) {
          ++quarantined;
        } else {
          fresh.push_back(s.links);
        }
      }
      EXPECT_EQ(sim.paths_at(at, t.as_id(origin)), fresh);
    }
  }
  EXPECT_GT(quarantined, 0u);
}

TEST(BeaconingSim, IntraIsdLeavesLearnCorePaths) {
  topo::IsdConfig config;
  config.n_cores = 3;
  config.n_ases = 40;
  config.seed = 9;
  const topo::Topology isd = topo::generate_isd(config);

  BeaconingSimConfig sim_config = quick_config(AlgorithmKind::kBaseline);
  sim_config.server.mode = BeaconingMode::kIntraIsd;
  BeaconingSim sim{isd, sim_config};
  sim.run();

  std::size_t reachable = 0, total = 0;
  for (topo::AsIndex leaf = 0; leaf < isd.as_count(); ++leaf) {
    if (isd.is_core(leaf)) continue;
    std::size_t cores_reached = 0;
    for (const topo::AsIndex core : isd.core_ases()) {
      ++total;
      cores_reached += !sim.paths_at(leaf, isd.as_id(core)).empty();
    }
    reachable += cores_reached;
    // A leaf only hears from cores whose customer cone contains it, but
    // every leaf's provider chain must reach at least one core.
    EXPECT_GE(cores_reached, 1u)
        << isd.as_id(leaf).to_string() << " learned no up-segment at all";
  }
  EXPECT_GT(static_cast<double>(reachable), 0.5 * static_cast<double>(total));
}

TEST(BeaconingSim, IntraIsdCoreReceivesNothing) {
  topo::IsdConfig config;
  config.n_cores = 2;
  config.n_ases = 30;
  config.seed = 11;
  const topo::Topology isd = topo::generate_isd(config);
  BeaconingSimConfig sim_config = quick_config(AlgorithmKind::kBaseline);
  sim_config.server.mode = BeaconingMode::kIntraIsd;
  BeaconingSim sim{isd, sim_config};
  sim.run();
  for (const topo::AsIndex core : isd.core_ases()) {
    EXPECT_EQ(sim.server(core).stats().pcbs_received, 0u)
        << "intra-ISD beaconing is uni-directional";
  }
}

}  // namespace
}  // namespace scion::ctrl
