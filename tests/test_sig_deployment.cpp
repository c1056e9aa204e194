#include <gtest/gtest.h>

#include "scion/deployment.hpp"
#include "scion/sig.hpp"
#include "topology/generator.hpp"

namespace scion::svc {
namespace {

using util::Duration;

// --- IpPrefix / AsMapTable -----------------------------------------------------

TEST(IpPrefix, ParseAndContain) {
  const auto p = IpPrefix::parse("10.1.0.0/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->length, 16);
  EXPECT_TRUE(p->contains(IpPrefix::parse("10.1.200.7")->address));
  EXPECT_FALSE(p->contains(IpPrefix::parse("10.2.0.1")->address));
}

TEST(IpPrefix, ParseHostAndDefault) {
  const auto host = IpPrefix::parse("192.168.1.1");
  ASSERT_TRUE(host.has_value());
  EXPECT_EQ(host->length, 32);
  const auto all = IpPrefix::parse("0.0.0.0/0");
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->contains(0xDEADBEEF));
}

TEST(IpPrefix, ParseRejectsGarbage) {
  EXPECT_FALSE(IpPrefix::parse("").has_value());
  EXPECT_FALSE(IpPrefix::parse("300.0.0.1").has_value());
  EXPECT_FALSE(IpPrefix::parse("10.0.0").has_value());
  EXPECT_FALSE(IpPrefix::parse("10.0.0.0/40").has_value());
  EXPECT_FALSE(IpPrefix::parse("10.0.0.0/8 ").has_value());
}

TEST(IpToString, RoundTrips) {
  EXPECT_EQ(ip_to_string(IpPrefix::parse("172.16.254.3")->address),
            "172.16.254.3");
}

TEST(AsMapTable, LongestPrefixMatchWins) {
  AsMapTable table;
  table.add(*IpPrefix::parse("10.0.0.0/8"), topo::IsdAsId::make(1, 1));
  table.add(*IpPrefix::parse("10.1.0.0/16"), topo::IsdAsId::make(1, 2));
  EXPECT_EQ(table.lookup(IpPrefix::parse("10.1.2.3")->address),
            topo::IsdAsId::make(1, 2));
  EXPECT_EQ(table.lookup(IpPrefix::parse("10.9.2.3")->address),
            topo::IsdAsId::make(1, 1));
  EXPECT_EQ(table.lookup(IpPrefix::parse("11.0.0.1")->address), std::nullopt);
}

// --- SIG --------------------------------------------------------------------------

struct SigFixture : ::testing::Test {
  topo::Topology world;
  std::unique_ptr<ControlPlaneSim> sim;
  topo::AsIndex src_leaf{topo::kInvalidAsIndex};
  topo::AsIndex dst_leaf{topo::kInvalidAsIndex};

  void SetUp() override {
    topo::MultiIsdConfig config;
    config.n_isds = 2;
    config.cores_per_isd = 2;
    config.ases_per_isd = 8;
    config.seed = 33;
    world = topo::generate_multi_isd(config);
    ControlPlaneSimConfig c;
    c.sim_duration = Duration::minutes(25);
    c.lookups_per_second = 0;
    c.link_failures_per_hour = 0;
    sim = std::make_unique<ControlPlaneSim>(world, c);
    sim->run();
    for (const topo::AsIndex leaf : sim->leaves()) {
      if (world.as_id(leaf).isd() == topo::IsdId{1} && src_leaf == topo::kInvalidAsIndex) {
        src_leaf = leaf;
      }
      if (world.as_id(leaf).isd() == topo::IsdId{2}) dst_leaf = leaf;
    }
    ASSERT_NE(src_leaf, topo::kInvalidAsIndex);
    ASSERT_NE(dst_leaf, topo::kInvalidAsIndex);
  }
};

TEST_F(SigFixture, EncapsulatesAndDelivers) {
  Sig sig{*sim, src_leaf};
  sig.asmap().add(*IpPrefix::parse("10.2.0.0/16"), world.as_id(dst_leaf));

  const auto result =
      sig.send_ip_packet(IpPrefix::parse("10.2.0.5")->address, util::Bytes{1200});
  EXPECT_TRUE(result.delivered) << result.error;
  EXPECT_EQ(result.remote_as, dst_leaf);
  EXPECT_GT(result.wire_bytes, util::Bytes{1200})
      << "SCION header + SIG framing added";
  EXPECT_EQ(sig.stats().packets_delivered, 1u);
  EXPECT_EQ(sig.stats().path_resolutions, 1u);
}

TEST_F(SigFixture, PathCacheAvoidsRepeatedResolution) {
  Sig sig{*sim, src_leaf};
  sig.asmap().add(*IpPrefix::parse("10.2.0.0/16"), world.as_id(dst_leaf));
  for (int i = 0; i < 10; ++i) {
    sig.send_ip_packet(IpPrefix::parse("10.2.0.5")->address, util::Bytes{100});
  }
  EXPECT_EQ(sig.stats().path_resolutions, 1u);
  EXPECT_EQ(sig.stats().packets_delivered, 10u);
}

TEST_F(SigFixture, UnmappedDestinationDropped) {
  Sig sig{*sim, src_leaf};
  const auto result =
      sig.send_ip_packet(IpPrefix::parse("8.8.8.8")->address, util::Bytes{100});
  EXPECT_FALSE(result.delivered);
  EXPECT_EQ(sig.stats().packets_dropped_no_mapping, 1u);
}

TEST_F(SigFixture, LocalDeliveryNeedsNoEncap) {
  Sig sig{*sim, src_leaf};
  sig.asmap().add(*IpPrefix::parse("10.1.0.0/16"), world.as_id(src_leaf));
  const auto result =
      sig.send_ip_packet(IpPrefix::parse("10.1.0.9")->address, util::Bytes{500});
  EXPECT_TRUE(result.delivered);
  EXPECT_EQ(result.wire_bytes, util::Bytes{500});
}

TEST_F(SigFixture, FailsOverOnLinkFailure) {
  Sig sig{*sim, src_leaf};
  sig.asmap().add(*IpPrefix::parse("10.2.0.0/16"), world.as_id(dst_leaf));
  const auto dst_ip = IpPrefix::parse("10.2.0.5")->address;
  const auto first = sig.send_ip_packet(dst_ip, util::Bytes{100});
  ASSERT_TRUE(first.delivered) << first.error;

  // Take down every link of the active path's first hop alternative by
  // failing links until the packet reroutes or drops; the SIG must either
  // fail over (delivered via another path) or report no path.
  std::size_t failovers_or_drops = 0;
  for (int round = 0; round < 6; ++round) {
    // Fail the first link of the path the SIG would use now.
    const auto probe = sig.send_ip_packet(dst_ip, util::Bytes{100});
    if (!probe.delivered) {
      ++failovers_or_drops;
      break;
    }
    sim->fail_link(/*link=*/[&] {
      // fail the first currently-up link towards dst: use the active path
      // by sending and checking which link dies is complex; just fail a
      // provider link of dst.
      for (topo::LinkIndex l : world.provider_links(dst_leaf)) {
        if (sim->link_up(l)) return l;
      }
      return topo::kInvalidLinkIndex;
    }(), Duration::hours(1));
  }
  // After all provider links of dst are dead, delivery must fail cleanly.
  const auto last = sig.send_ip_packet(dst_ip, util::Bytes{100});
  EXPECT_FALSE(last.delivered);
  EXPECT_GT(sig.stats().packets_dropped_no_path, 0u);
}

// --- ISP deployment models ----------------------------------------------------------

TEST(DeployedLink, WireBytesPerModel) {
  DeployedLinkConfig native;
  native.model = InterIspModel::kNativeCrossConnect;
  DeployedLinkConfig roas = native;
  roas.model = InterIspModel::kRouterOnAStick;
  EXPECT_EQ(DeployedLink{native}.wire_bytes(util::Bytes{1000}), util::Bytes{1000});
  EXPECT_EQ(DeployedLink{roas}.wire_bytes(util::Bytes{1000}),
            util::Bytes{1000} + kIpEncapOverheadBytes);
}

TEST(DeployedLink, QueuingDisciplineGuaranteesShare) {
  DeployedLinkConfig config;
  config.model = InterIspModel::kRouterOnAStick;
  config.capacity_mbps = 1000;
  config.scion_min_share = 0.4;
  const DeployedLink with{config};
  // Hostile IP load at 100%: SCION still gets its guaranteed 400 Mbps.
  EXPECT_DOUBLE_EQ(with.scion_goodput_mbps(800, 1.0), 400);
  // Without a queuing discipline SCION is crowded out entirely.
  config.queuing_discipline = false;
  const DeployedLink without{config};
  EXPECT_DOUBLE_EQ(without.scion_goodput_mbps(800, 1.0), 0);
}

TEST(DeployedLink, NativeUnaffectedByIpLoad) {
  DeployedLinkConfig config;
  config.model = InterIspModel::kNativeCrossConnect;
  config.capacity_mbps = 1000;
  const DeployedLink link{config};
  EXPECT_DOUBLE_EQ(link.scion_goodput_mbps(800, 1.0), 800);
  EXPECT_DOUBLE_EQ(link.scion_goodput_mbps(1500, 0.0), 1000);
}

TEST(DeployedLink, RedundantAvailabilityDominates) {
  DeployedLinkConfig config;
  config.capacity_mbps = 1000;
  config.model = InterIspModel::kNativeCrossConnect;
  const double native = DeployedLink{config}.availability(0.01, 0.02);
  config.model = InterIspModel::kRouterOnAStick;
  const double roas = DeployedLink{config}.availability(0.01, 0.02);
  config.model = InterIspModel::kRedundant;
  const double redundant = DeployedLink{config}.availability(0.01, 0.02);
  EXPECT_LT(roas, native) << "IP underlay adds a failure mode";
  EXPECT_GT(redundant, native) << "redundancy beats either single link";
  EXPECT_NEAR(native, 0.99, 1e-12);
}

// --- IXP fabrics ----------------------------------------------------------------------

TEST(IxpFabric, BigSwitchIsSingleFailureDomain) {
  IxpConfig config;
  config.members = 5;
  const topo::Topology fabric =
      build_ixp_fabric(IxpModel::kBigSwitch, config);
  EXPECT_EQ(fabric.as_count(), 6u);  // members + the shared fabric
  for (topo::AsIndex a = 0; a < config.members; ++a) {
    for (topo::AsIndex b = a + 1; b < config.members; ++b) {
      EXPECT_EQ(ixp_member_min_cut(fabric, a, b), 1)
          << "one port/fabric failure disconnects any pair";
    }
  }
}

TEST(IxpFabric, ExposedTopologyMultipliesPathDiversity) {
  IxpConfig config;
  config.members = 5;
  config.sites = 4;
  config.links_per_site_pair = 2;
  config.member_homing = 2;
  const topo::Topology big = build_ixp_fabric(IxpModel::kBigSwitch, config);
  const topo::Topology exposed =
      build_ixp_fabric(IxpModel::kExposedTopology, config);
  EXPECT_TRUE(exposed.connected());
  // Member pairs have no direct link in the enhanced model — everything
  // crosses the fabric — but the fabric itself offers redundant paths:
  // the min-cut through it exceeds the single shared-fabric link of the
  // big-switch model.
  EXPECT_TRUE(exposed.links_between(0, 1).empty());
  EXPECT_GE(ixp_member_min_cut(exposed, 0, 1), 2)
      << "dual homing + redundant site links survive any single failure";
}

TEST(IxpFabric, MemberHomingBoundsMinCut) {
  IxpConfig config;
  config.members = 4;
  config.sites = 3;
  config.member_homing = 2;
  const topo::Topology exposed =
      build_ixp_fabric(IxpModel::kExposedTopology, config);
  for (topo::AsIndex a = 0; a < config.members; ++a) {
    for (topo::AsIndex b = a + 1; b < config.members; ++b) {
      const int cut = ixp_member_min_cut(exposed, a, b);
      EXPECT_GE(cut, 1);
      EXPECT_LE(cut, 2) << "bounded by the members' homing degree";
    }
  }
}

}  // namespace
}  // namespace scion::svc
