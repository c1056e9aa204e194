#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "scion/control_plane_sim.hpp"
#include "topology/generator.hpp"

namespace scion::svc {
namespace {

using util::Duration;

topo::Topology small_world() {
  topo::MultiIsdConfig config;
  config.n_isds = 3;
  config.cores_per_isd = 2;
  config.ases_per_isd = 10;
  config.seed = 21;
  return topo::generate_multi_isd(config);
}

ControlPlaneSimConfig quick_config() {
  ControlPlaneSimConfig config;
  config.sim_duration = Duration::minutes(45);
  config.lookups_per_second = 0.5;
  config.link_failures_per_hour = 6.0;
  config.registration_interval = Duration::minutes(15);
  config.seed = 8;
  return config;
}

struct ControlPlaneFixture : ::testing::Test {
  topo::Topology world = small_world();
  ControlPlaneSim sim{world, quick_config()};

  void run() { sim.run(); }
};

TEST_F(ControlPlaneFixture, AllTableOneComponentsObserved) {
  run();
  const auto rows = sim.ledger().rows();
  std::set<std::string> components;
  for (const auto& row : rows) components.insert(row.component);
  for (const char* expected :
       {component::kCoreBeaconing, component::kIntraIsdBeaconing,
        component::kDownSegmentLookup, component::kCoreSegmentLookup,
        component::kEndpointLookup, component::kRegistration,
        component::kRevocation}) {
    EXPECT_TRUE(components.contains(expected)) << "missing " << expected;
  }
}

TEST_F(ControlPlaneFixture, ScopesMatchTableOne) {
  run();
  std::map<std::string, analysis::Scope> scopes;
  for (const auto& row : sim.ledger().rows()) {
    scopes[row.component] = row.scope();
  }
  EXPECT_EQ(scopes[component::kCoreBeaconing], analysis::Scope::kGlobal);
  EXPECT_EQ(scopes[component::kIntraIsdBeaconing], analysis::Scope::kIntraIsd);
  EXPECT_EQ(scopes[component::kDownSegmentLookup], analysis::Scope::kGlobal);
  EXPECT_EQ(scopes[component::kCoreSegmentLookup], analysis::Scope::kIntraIsd);
  EXPECT_EQ(scopes[component::kEndpointLookup], analysis::Scope::kIntraAs);
  EXPECT_EQ(scopes[component::kRegistration], analysis::Scope::kIntraIsd);
  EXPECT_EQ(scopes[component::kRevocation], analysis::Scope::kIntraIsd);
}

TEST_F(ControlPlaneFixture, BeaconingDominatesPushTraffic) {
  run();
  util::Bytes beaconing{}, registrations{}, revocations{};
  for (const auto& row : sim.ledger().rows()) {
    if (row.component == component::kCoreBeaconing ||
        row.component == component::kIntraIsdBeaconing) {
      beaconing += row.bytes;
    }
    if (row.component == component::kRegistration) registrations = row.bytes;
    if (row.component == component::kRevocation) revocations = row.bytes;
  }
  // Section 4: among the push-based components, topology exploration has by
  // far the highest overhead. (Pull-based lookup traffic is workload-
  // proportional and amortized by data traffic + caching, so it is not a
  // scalability driver — see the caching test below.)
  EXPECT_GT(beaconing, registrations);
  EXPECT_GT(beaconing, revocations * 10u);
}

TEST_F(ControlPlaneFixture, ResolvePathsReturnsForwardablePaths) {
  run();
  // Find a leaf pair in different ISDs with resolvable paths.
  std::size_t verified = 0;
  const auto& leaves = sim.leaves();
  for (std::size_t i = 0; i < leaves.size() && verified < 3; ++i) {
    for (std::size_t j = 0; j < leaves.size() && verified < 3; ++j) {
      if (i == j) continue;
      const auto paths = sim.resolve_paths(leaves[i], leaves[j]);
      for (const auto& p : paths) {
        EXPECT_EQ(p.ases.front(), leaves[i]);
        EXPECT_EQ(p.ases.back(), leaves[j]);
        std::string error;
        EXPECT_TRUE(sim.dataplane().verify(p, &error)) << error;
        ++verified;
      }
    }
  }
  EXPECT_GE(verified, 3u) << "the control plane must resolve usable paths";
}

TEST_F(ControlPlaneFixture, CachingCutsRepeatLookups) {
  run();
  const auto& leaves = sim.leaves();
  ASSERT_GE(leaves.size(), 2u);
  topo::AsIndex src = leaves[0], dst = leaves[1];
  // Pick a cross-ISD pair for a global lookup.
  for (const topo::AsIndex candidate : leaves) {
    if (world.as_id(candidate).isd() != world.as_id(src).isd()) {
      dst = candidate;
      break;
    }
  }
  std::uint64_t down_before = 0;
  for (const auto& row : sim.ledger().rows()) {
    if (row.component == component::kDownSegmentLookup) down_before = row.messages;
  }
  sim.resolve_paths(src, dst);
  std::uint64_t down_mid = 0;
  for (const auto& row : sim.ledger().rows()) {
    if (row.component == component::kDownSegmentLookup) down_mid = row.messages;
  }
  sim.resolve_paths(src, dst);  // cached now
  std::uint64_t down_after = 0;
  for (const auto& row : sim.ledger().rows()) {
    if (row.component == component::kDownSegmentLookup) down_after = row.messages;
  }
  EXPECT_EQ(down_after, down_mid) << "second lookup must hit the cache";
  EXPECT_GE(down_mid, down_before);
}

TEST_F(ControlPlaneFixture, FailedLinkTriggersRevocationAndRecovery) {
  run();
  // Pick a provider-customer link and fail it explicitly.
  topo::LinkIndex victim = topo::kInvalidLinkIndex;
  for (topo::LinkIndex l = 0; l < world.link_count(); ++l) {
    if (world.link(l).type == topo::LinkType::kProviderCustomer &&
        sim.link_up(l)) {
      victim = l;
      break;
    }
  }
  ASSERT_NE(victim, topo::kInvalidLinkIndex);
  std::uint64_t revocations_before = 0;
  for (const auto& row : sim.ledger().rows()) {
    if (row.component == component::kRevocation) {
      revocations_before = row.messages;
    }
  }
  sim.fail_link(victim, Duration::minutes(1));
  EXPECT_FALSE(sim.link_up(victim));
  std::uint64_t revocations_after = 0;
  for (const auto& row : sim.ledger().rows()) {
    if (row.component == component::kRevocation) {
      revocations_after = row.messages;
    }
  }
  EXPECT_GT(revocations_after, revocations_before);
  sim.simulator().run_until(sim.simulator().now() + Duration::minutes(2));
  EXPECT_TRUE(sim.link_up(victim));
}

TEST_F(ControlPlaneFixture, BothEndpointsRevokeAtTheirIsdCores) {
  run();
  // A cross-ISD link: the two endpoints live in different ISDs, so a
  // one-sided reaction would only ever reach one ISD's core path servers.
  topo::LinkIndex victim = topo::kInvalidLinkIndex;
  for (topo::LinkIndex l = 0; l < world.link_count(); ++l) {
    const topo::Link& link = world.link(l);
    if (world.as_id(link.a).isd() != world.as_id(link.b).isd() &&
        sim.link_up(l)) {
      victim = l;
      break;
    }
  }
  ASSERT_NE(victim, topo::kInvalidLinkIndex);

  const auto revocation_messages = [&] {
    for (const auto& row : sim.ledger().rows()) {
      if (row.component == component::kRevocation) return row.messages;
    }
    return std::uint64_t{0};
  };
  const std::uint64_t before = revocation_messages();
  sim.fail_link(victim, Duration::minutes(1));

  // Each endpoint notifies every core path server of its own ISD.
  const topo::Link& link = world.link(victim);
  std::uint64_t expected = 0;
  for (const topo::AsIndex observer : {link.a, link.b}) {
    const topo::IsdId isd = world.as_id(observer).isd();
    for (const topo::AsIndex core : world.core_ases()) {
      if (world.as_id(core).isd() == isd) ++expected;
    }
  }
  EXPECT_EQ(revocation_messages() - before, expected)
      << "both ISDs' cores must hear about a cross-ISD link failure";
}

TEST_F(ControlPlaneFixture, LookupWorkloadRan) {
  run();
  EXPECT_GT(sim.lookups_performed(), 0u);
  EXPECT_GT(sim.paths_resolved(), 0u);
}

// --- Core segments a via core terminates ------------------------------------------

/// A run with no lookups (so no leaf has cached a core-segment lookup) and
/// no link failures, plus two leaves of one ISD whose up-segments reach the
/// same via core, and a destination leaf in another ISD.
struct SharedViaFixture : ::testing::Test {
  topo::Topology world = small_world();
  ControlPlaneSim sim{world, [] {
                        ControlPlaneSimConfig config = quick_config();
                        config.lookups_per_second = 0;
                        config.link_failures_per_hour = 0;
                        return config;
                      }()};
  topo::AsIndex first{}, second{}, via{}, dst{};

  void SetUp() override {
    sim.run();
    const util::TimePoint now = sim.simulator().now();
    const auto vias_of = [&](topo::AsIndex leaf) {
      std::set<topo::AsIndex> out;
      for (const SegmentRef& u : sim.path_server(leaf).up_segments(now)) {
        out.insert(u->origin_as());
      }
      return out;
    };
    for (const topo::AsIndex a : sim.leaves()) {
      for (const topo::AsIndex b : sim.leaves()) {
        if (a == b || world.as_id(a).isd() != world.as_id(b).isd()) continue;
        for (const topo::AsIndex v : vias_of(a)) {
          if (!vias_of(b).contains(v)) continue;
          for (const topo::AsIndex d : sim.leaves()) {
            if (world.as_id(d).isd() == world.as_id(a).isd()) continue;
            first = a, second = b, via = v, dst = d;
            return;
          }
        }
      }
    }
    FAIL() << "no two leaves of one ISD reach a common core";
  }

  /// The core segments a lookup from `leaf` to `dst` got from `via`.
  std::vector<SegmentRef> via_segments(topo::AsIndex leaf) {
    std::vector<SegmentRef> out;
    for (const SegmentRef& c : sim.lookup_segments(leaf, dst).core) {
      if (c->terminal_as() == via) out.push_back(c);
    }
    return out;
  }
};

TEST_F(SharedViaFixture, LeavesAskingOneViaGetItsSegmentObjects) {
  const std::vector<SegmentRef> a = via_segments(first);
  const std::vector<SegmentRef> b = via_segments(second);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "the via terminated and signed its stored PCBs once";
}

TEST_F(SharedViaFixture, RefreshedPcbIsTerminatedAnew) {
  const std::vector<SegmentRef> before = via_segments(first);
  ASSERT_FALSE(before.empty());
  // One more beaconing interval refreshes the PCBs the via stores.
  sim.simulator().run_until(sim.simulator().now() + Duration::minutes(11));
  const std::vector<SegmentRef> after = via_segments(second);
  ASSERT_FALSE(after.empty());

  const ctrl::BeaconStore& store = sim.core_server(via)->store();
  std::size_t renewed = 0;
  for (const SegmentRef& seg : after) {
    // Built from the instance the via stores now: same links, same
    // timestamp.
    const auto& bucket = store.for_origin(world.as_id(seg->origin_as()));
    const auto stored =
        std::find_if(bucket.begin(), bucket.end(),
                     [&](const ctrl::StoredPcb& s) { return s.links == seg->links; });
    ASSERT_NE(stored, bucket.end());
    EXPECT_EQ(seg->pcb->timestamp(), stored->pcb->timestamp());
    if (std::find(before.begin(), before.end(), seg) == before.end()) {
      ++renewed;
    }
  }
  EXPECT_GT(renewed, 0u) << "no stored PCB was refreshed in one interval";
}

}  // namespace
}  // namespace scion::svc
