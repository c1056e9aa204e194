#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "topology/generator.hpp"
#include "topology/io.hpp"
#include "topology/topology.hpp"

namespace scion::topo {
namespace {

// --- Ids ----------------------------------------------------------------------

TEST(IsdAsId, PackAndUnpack) {
  const IsdAsId id = IsdAsId::make(200, 0xFFFFFFFFFFFF);
  EXPECT_EQ(id.isd(), IsdId{200});
  EXPECT_EQ(id.as_number(), 0xFFFFFFFFFFFFULL);
  EXPECT_TRUE(id.valid());
  EXPECT_FALSE(IsdAsId{}.valid());
}

TEST(IsdAsId, AsNumberTruncatesTo48Bits) {
  const IsdAsId id = IsdAsId::make(1, 0xFFFF'0000'0000'0001ULL);
  EXPECT_EQ(id.as_number(), 1u);
  EXPECT_EQ(id.isd(), IsdId{1});
}

TEST(IsdAsId, StringRoundTrip) {
  const IsdAsId id = IsdAsId::make(17, 64512);
  EXPECT_EQ(id.to_string(), "17-64512");
  EXPECT_EQ(IsdAsId::parse("17-64512"), id);
}

TEST(IsdAsId, ParseRejectsGarbage) {
  EXPECT_FALSE(IsdAsId::parse("").valid());
  EXPECT_FALSE(IsdAsId::parse("17").valid());
  EXPECT_FALSE(IsdAsId::parse("x-1").valid());
  EXPECT_FALSE(IsdAsId::parse("70000-1").valid());
}

// --- Topology -------------------------------------------------------------------

Topology make_triangle() {
  Topology t;
  const AsIndex a = t.add_as(IsdAsId::make(1, 1), true);
  const AsIndex b = t.add_as(IsdAsId::make(1, 2), true);
  const AsIndex c = t.add_as(IsdAsId::make(1, 3), false);
  t.add_link(a, b, LinkType::kCore);
  t.add_link(a, b, LinkType::kCore);  // parallel
  t.add_link(a, c, LinkType::kProviderCustomer);
  t.add_link(b, c, LinkType::kProviderCustomer);
  return t;
}

TEST(Topology, BasicAccessors) {
  const Topology t = make_triangle();
  EXPECT_EQ(t.as_count(), 3u);
  EXPECT_EQ(t.link_count(), 4u);
  EXPECT_TRUE(t.is_core(0));
  EXPECT_FALSE(t.is_core(2));
  EXPECT_EQ(t.as_id(1), IsdAsId::make(1, 2));
  EXPECT_EQ(t.find(IsdAsId::make(1, 3)), std::optional<AsIndex>{2});
  EXPECT_EQ(t.find(IsdAsId::make(9, 9)), std::nullopt);
}

TEST(Topology, InterfaceIdsUniquePerAs) {
  const Topology t = make_triangle();
  std::set<IfId> seen;
  for (const LinkIndex l : {0u, 1u, 2u}) {
    EXPECT_TRUE(seen.insert(t.interface_of(l, 0)).second);
  }
}

TEST(Topology, NeighborAndInterfaceLookup) {
  const Topology t = make_triangle();
  EXPECT_EQ(t.neighbor(0, 0), 1u);
  EXPECT_EQ(t.neighbor(0, 1), 0u);
  const IfId if_a = t.interface_of(0, 0);
  EXPECT_EQ(t.link_by_interface(0, if_a), std::optional<LinkIndex>{0});
  EXPECT_EQ(t.link_by_interface(0, IfId{999}), std::nullopt);
}

TEST(Topology, LinksBetweenSeesParallelLinks) {
  const Topology t = make_triangle();
  EXPECT_EQ(t.links_between(0, 1).size(), 2u);
  EXPECT_EQ(t.links_between(0, 2).size(), 1u);
  EXPECT_EQ(t.links_between(1, 0).size(), 2u);
}

TEST(Topology, DegreeCountsDistinctNeighbors) {
  const Topology t = make_triangle();
  EXPECT_EQ(t.degree(0), 2u);
  EXPECT_EQ(t.link_degree(0), 3u);
}

TEST(Topology, ProviderCustomerOrientation) {
  const Topology t = make_triangle();
  EXPECT_EQ(t.customer_links(0).size(), 1u);
  EXPECT_EQ(t.provider_links(2).size(), 2u);
}

TEST(Topology, CoreAses) {
  const Topology t = make_triangle();
  EXPECT_EQ(t.core_ases(), (std::vector<AsIndex>{0, 1}));
}

TEST(Topology, Connectivity) {
  Topology t = make_triangle();
  EXPECT_TRUE(t.connected());
  t.add_as(IsdAsId::make(1, 99), false);
  EXPECT_FALSE(t.connected());
}

TEST(Topology, HighestDegreeOrdering) {
  const Topology t = make_triangle();
  const auto top = t.highest_degree(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 0u);  // 3 incident links
}

// --- Generators -------------------------------------------------------------------

TEST(Generator, HierarchyIsConnectedAndSized) {
  HierarchyConfig config;
  config.n_ases = 200;
  config.n_roots = 8;
  config.seed = 3;
  const Topology t = generate_hierarchy(config);
  EXPECT_EQ(t.as_count(), 200u);
  EXPECT_TRUE(t.connected());
  std::size_t cores = 0;
  for (AsIndex i = 0; i < t.as_count(); ++i) cores += t.is_core(i);
  EXPECT_EQ(cores, 8u);
}

TEST(Generator, HierarchyProvidersJoinedEarlier) {
  // Provider side of every provider-customer link has a smaller index, so
  // the customer-provider graph is acyclic (valley-free by construction).
  HierarchyConfig config;
  config.n_ases = 300;
  config.seed = 5;
  const Topology t = generate_hierarchy(config);
  for (LinkIndex l = 0; l < t.link_count(); ++l) {
    const Link& link = t.link(l);
    if (link.type == LinkType::kProviderCustomer) {
      EXPECT_LT(link.a, link.b);
    }
  }
}

TEST(Generator, HierarchyDeterministicPerSeed) {
  HierarchyConfig config;
  config.n_ases = 100;
  config.seed = 9;
  const Topology a = generate_hierarchy(config);
  const Topology b = generate_hierarchy(config);
  EXPECT_EQ(topology_to_string(a), topology_to_string(b));
  config.seed = 10;
  const Topology c = generate_hierarchy(config);
  EXPECT_NE(topology_to_string(a), topology_to_string(c));
}

TEST(Generator, HierarchyHasParallelLinksAndPeering) {
  HierarchyConfig config;
  config.n_ases = 400;
  config.seed = 1;
  const Topology t = generate_hierarchy(config);
  bool has_parallel = false;
  bool has_peer = false;
  for (LinkIndex l = 0; l < t.link_count(); ++l) {
    const Link& link = t.link(l);
    if (link.type == LinkType::kPeer) has_peer = true;
    if (t.links_between(link.a, link.b).size() > 1) has_parallel = true;
  }
  EXPECT_TRUE(has_parallel);
  EXPECT_TRUE(has_peer);
}

TEST(Generator, CoreNetworkPrunesToHighDegreeConnected) {
  HierarchyConfig config;
  config.n_ases = 500;
  config.seed = 2;
  const Topology internet = generate_hierarchy(config);
  const Topology core = make_core_network(internet, 60, 6);
  EXPECT_LE(core.as_count(), 60u);
  EXPECT_GE(core.as_count(), 40u) << "pruning should keep most of the top";
  EXPECT_TRUE(core.connected());
  std::set<IsdId> isds;
  for (AsIndex i = 0; i < core.as_count(); ++i) {
    EXPECT_TRUE(core.is_core(i));
    isds.insert(core.as_id(i).isd());
  }
  EXPECT_EQ(isds.size(), 6u);
}

TEST(Generator, WithAllCoreLinksPreservesIndices) {
  HierarchyConfig config;
  config.n_ases = 300;
  config.seed = 4;
  const Topology internet = generate_hierarchy(config);
  const Topology bgp_view = make_core_network(internet, 50, 5);
  const Topology scion_view = with_all_core_links(bgp_view);
  ASSERT_EQ(bgp_view.link_count(), scion_view.link_count());
  ASSERT_EQ(bgp_view.as_count(), scion_view.as_count());
  for (LinkIndex l = 0; l < bgp_view.link_count(); ++l) {
    EXPECT_EQ(bgp_view.link(l).a, scion_view.link(l).a);
    EXPECT_EQ(bgp_view.link(l).b, scion_view.link(l).b);
    EXPECT_EQ(bgp_view.link(l).if_a, scion_view.link(l).if_a);
    EXPECT_EQ(scion_view.link(l).type, LinkType::kCore);
  }
}

TEST(Generator, CoreNetworkKeepsRelationships) {
  HierarchyConfig config;
  config.n_ases = 300;
  config.seed = 4;
  const Topology internet = generate_hierarchy(config);
  const Topology bgp_view = make_core_network(internet, 50, 5);
  bool has_pc = false;
  for (LinkIndex l = 0; l < bgp_view.link_count(); ++l) {
    if (bgp_view.link(l).type == LinkType::kProviderCustomer) has_pc = true;
  }
  EXPECT_TRUE(has_pc) << "relationship types survive pruning";
}

TEST(Generator, ScionLabSmallAndSparse) {
  ScionLabConfig config;
  const Topology t = generate_scionlab(config);
  EXPECT_EQ(t.as_count(), 21u);
  EXPECT_TRUE(t.connected());
  double total_degree = 0;
  for (AsIndex i = 0; i < t.as_count(); ++i) {
    total_degree += static_cast<double>(t.degree(i));
  }
  EXPECT_LT(total_degree / 21.0, 3.0) << "testbed averages ~2 neighbors";
}

TEST(Generator, MultiIsdStructure) {
  MultiIsdConfig config;
  config.n_isds = 3;
  config.cores_per_isd = 2;
  config.ases_per_isd = 10;
  const Topology t = generate_multi_isd(config);
  EXPECT_EQ(t.as_count(), 30u);
  EXPECT_TRUE(t.connected());
  std::map<IsdId, int> cores;
  for (AsIndex i = 0; i < t.as_count(); ++i) {
    if (t.is_core(i)) ++cores[t.as_id(i).isd()];
  }
  EXPECT_EQ(cores.size(), 3u);
  for (const auto& [isd, n] : cores) EXPECT_EQ(n, 2);
  // Inter-ISD links exist and connect cores only.
  bool has_inter = false;
  for (LinkIndex l = 0; l < t.link_count(); ++l) {
    const Link& link = t.link(l);
    if (t.as_id(link.a).isd() != t.as_id(link.b).isd()) {
      has_inter = true;
      EXPECT_EQ(link.type, LinkType::kCore);
      EXPECT_TRUE(t.is_core(link.a) && t.is_core(link.b));
    }
  }
  EXPECT_TRUE(has_inter);
}

// --- IO -------------------------------------------------------------------------

TEST(TopologyIo, RoundTrip) {
  const Topology t = make_triangle();
  const Topology back = topology_from_string(topology_to_string(t));
  EXPECT_EQ(topology_to_string(t), topology_to_string(back));
  EXPECT_EQ(back.as_count(), 3u);
  EXPECT_EQ(back.link_count(), 4u);
  EXPECT_EQ(back.link(2).type, LinkType::kProviderCustomer);
}

TEST(TopologyIo, GeneratedRoundTrip) {
  HierarchyConfig config;
  config.n_ases = 120;
  config.seed = 8;
  const Topology t = generate_hierarchy(config);
  const Topology back = topology_from_string(topology_to_string(t));
  EXPECT_EQ(topology_to_string(t), topology_to_string(back));
}

TEST(TopologyIo, CommentsAndBlankLines) {
  const Topology t = topology_from_string(
      "# header\n\nas 1-1 core\nas 1-2 leaf # trailing\nlink 1-1 1-2 pc\n");
  EXPECT_EQ(t.as_count(), 2u);
  EXPECT_EQ(t.link_count(), 1u);
}

TEST(TopologyIo, Errors) {
  EXPECT_THROW(topology_from_string("as x core\n"), ParseError);
  EXPECT_THROW(topology_from_string("as 1-1 boss\n"), ParseError);
  EXPECT_THROW(topology_from_string("as 1-1 core\nas 1-1 core\n"), ParseError);
  EXPECT_THROW(topology_from_string("link 1-1 1-2 pc\n"), ParseError);
  EXPECT_THROW(
      topology_from_string("as 1-1 core\nas 1-2 leaf\nlink 1-1 1-2 xx\n"),
      ParseError);
  EXPECT_THROW(topology_from_string("as 1-1 core\nlink 1-1 1-1 pc\n"),
               ParseError);
  EXPECT_THROW(topology_from_string("frobnicate\n"), ParseError);
}

}  // namespace
}  // namespace scion::topo
