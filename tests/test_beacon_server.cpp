#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "core/beacon_server.hpp"
#include "core/beaconing_sim.hpp"

namespace scion::ctrl {
namespace {

using util::Duration;
using util::TimePoint;

constexpr std::uint64_t kDomain = crypto::kDefaultKeyDomainSeed;

/// Collects every (egress link, PCB) a server emits.
struct SendCollector {
  std::vector<std::pair<topo::LinkIndex, PcbRef>> sent;
  BeaconServer::SendFn fn() {
    return [this](topo::LinkIndex egress, const PcbRef& pcb) {
      sent.emplace_back(egress, pcb);
    };
  }
  std::size_t count_on(topo::LinkIndex l) const {
    std::size_t n = 0;
    for (const auto& [egress, pcb] : sent) n += egress == l;
    return n;
  }
};

/// Core triangle: A(0) - B(1) (two parallel links), A - C(2), B - C.
topo::Topology core_triangle() {
  topo::Topology t;
  const auto a = t.add_as(topo::IsdAsId::make(1, 1), true);
  const auto b = t.add_as(topo::IsdAsId::make(1, 2), true);
  const auto c = t.add_as(topo::IsdAsId::make(2, 3), true);
  t.add_link(a, b, topo::LinkType::kCore);  // link 0
  t.add_link(a, b, topo::LinkType::kCore);  // link 1
  t.add_link(a, c, topo::LinkType::kCore);  // link 2
  t.add_link(b, c, topo::LinkType::kCore);  // link 3
  return t;
}

/// Intra chain: core(0) -> mid(1) -> leaf(2), plus a peer link mid - peer(3).
topo::Topology intra_chain() {
  topo::Topology t;
  const auto core = t.add_as(topo::IsdAsId::make(1, 1), true);
  const auto mid = t.add_as(topo::IsdAsId::make(1, 2), false);
  const auto leaf = t.add_as(topo::IsdAsId::make(1, 3), false);
  const auto peer = t.add_as(topo::IsdAsId::make(1, 4), false);
  t.add_link(core, mid, topo::LinkType::kProviderCustomer);  // link 0
  t.add_link(mid, leaf, topo::LinkType::kProviderCustomer);  // link 1
  t.add_link(mid, peer, topo::LinkType::kPeer);              // link 2
  return t;
}

BeaconServerConfig baseline_config() {
  BeaconServerConfig config;
  config.algorithm = AlgorithmKind::kBaseline;
  return config;
}

TEST(BeaconServer, CoreOriginatesOnEveryCoreLinkEachInterval) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  SendCollector collector;
  BeaconServer server{t, 0, baseline_config(), keys, kDomain, collector.fn()};

  server.on_interval(TimePoint::origin());
  // A has 3 core links (0, 1, 2); origination = 1 PCB per link.
  EXPECT_EQ(collector.sent.size(), 3u);
  EXPECT_EQ(collector.count_on(0), 1u);
  EXPECT_EQ(collector.count_on(1), 1u);
  EXPECT_EQ(collector.count_on(2), 1u);
  for (const auto& [egress, pcb] : collector.sent) {
    EXPECT_EQ(pcb->origin(), t.as_id(0));
    EXPECT_EQ(pcb->hops(), 1u);
    EXPECT_EQ(pcb->entries()[0].out_if, t.interface_of(egress, 0));
    EXPECT_TRUE(pcb->verify(keys));
  }
  EXPECT_EQ(server.stats().pcbs_originated, 3u);
}

TEST(BeaconServer, ReceivedPcbStoredAndPropagated) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  SendCollector from_b;
  BeaconServer b_server{t, 1, baseline_config(), keys, kDomain, from_b.fn()};
  SendCollector from_a;
  BeaconServer a_server{t, 0, baseline_config(), keys, kDomain, from_a.fn()};

  // B originates; deliver its PCB on link 0 to A.
  b_server.on_interval(TimePoint::origin());
  PcbRef pcb_on_0;
  for (const auto& [egress, pcb] : from_b.sent) {
    if (egress == 0) pcb_on_0 = pcb;
  }
  ASSERT_TRUE(pcb_on_0);
  const TimePoint t1 = TimePoint::origin() + Duration::seconds(1);
  a_server.handle_pcb(pcb_on_0, 0, t1);
  EXPECT_EQ(a_server.store().total_stored(), 1u);
  EXPECT_EQ(a_server.stats().pcbs_received, 1u);

  // Next interval, A propagates B's path towards C (link 2) but not back
  // to B (loop prevention).
  from_a.sent.clear();
  a_server.on_interval(t1 + Duration::minutes(10));
  std::size_t propagated_to_c = 0;
  for (const auto& [egress, pcb] : from_a.sent) {
    if (pcb->origin() == t.as_id(1)) {
      EXPECT_EQ(egress, 2u) << "B-origin PCBs must only go to C";
      ++propagated_to_c;
      EXPECT_EQ(pcb->hops(), 2u);
      EXPECT_TRUE(pcb->verify(keys));
      EXPECT_EQ(pcb->entries()[1].isd_as, t.as_id(0));
    }
  }
  EXPECT_EQ(propagated_to_c, 1u);
}

TEST(BeaconServer, DropsLoopingPcb) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  SendCollector collector;
  BeaconServer a_server{t, 0, baseline_config(), keys, kDomain, collector.fn()};

  // A PCB that already contains A, arriving at A.
  const crypto::SigningKey sk_b = keys.key_for(t.as_id(1).value());
  const auto fk_b = crypto::ForwardingKey::derive(t.as_id(1).value(), kDomain);
  const crypto::SigningKey sk_a = keys.key_for(t.as_id(0).value());
  const auto fk_a = crypto::ForwardingKey::derive(t.as_id(0).value(), kDomain);
  Pcb pcb = Pcb::originate(t.as_id(1), t.interface_of(3, 1), TimePoint::origin(),
                           Duration::hours(6), sk_b, fk_b);
  // ... extended by A itself somehow coming back over link 0:
  pcb = pcb.extend_signed(t.as_id(0), t.interface_of(2, 0),
                          t.interface_of(0, 0), {}, sk_a, fk_a);
  a_server.handle_pcb(std::make_shared<const Pcb>(std::move(pcb)), 0,
                      TimePoint::origin());
  EXPECT_EQ(a_server.store().total_stored(), 0u);
  EXPECT_EQ(a_server.stats().loops_dropped, 1u);
}

TEST(BeaconServer, DropsPcbWithBogusInterfaces) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  SendCollector collector;
  BeaconServer a_server{t, 0, baseline_config(), keys, kDomain, collector.fn()};

  const crypto::SigningKey sk_b = keys.key_for(t.as_id(1).value());
  const auto fk_b = crypto::ForwardingKey::derive(t.as_id(1).value(), kDomain);
  // B claims an interface it does not have.
  const Pcb pcb = Pcb::originate(t.as_id(1), IfId{999}, TimePoint::origin(),
                                 Duration::hours(6), sk_b, fk_b);
  a_server.handle_pcb(std::make_shared<const Pcb>(pcb), 0, TimePoint::origin());
  EXPECT_EQ(a_server.store().total_stored(), 0u);
  EXPECT_EQ(a_server.stats().resolve_failures, 1u);
}

TEST(BeaconServer, DropsPcbArrivingOnWrongLink) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  SendCollector b_out;
  BeaconServer b_server{t, 1, baseline_config(), keys, kDomain, b_out.fn()};
  SendCollector a_out;
  BeaconServer a_server{t, 0, baseline_config(), keys, kDomain, a_out.fn()};

  b_server.on_interval(TimePoint::origin());
  PcbRef pcb_on_0;
  for (const auto& [egress, pcb] : b_out.sent) {
    if (egress == 0) pcb_on_0 = pcb;
  }
  ASSERT_TRUE(pcb_on_0);
  // Deliver it as if it came over link 1 (the other parallel link).
  a_server.handle_pcb(pcb_on_0, 1, TimePoint::origin());
  EXPECT_EQ(a_server.stats().resolve_failures, 1u);
}

TEST(BeaconServer, RejectsForgedSignature) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  SendCollector collector;
  BeaconServer a_server{t, 0, baseline_config(), keys, kDomain, collector.fn()};

  // Forged PCB: built under a different key domain.
  crypto::KeyStore rogue{kDomain + 1};
  const crypto::SigningKey sk = rogue.key_for(t.as_id(1).value());
  const auto fk = crypto::ForwardingKey::derive(t.as_id(1).value(), kDomain + 1);
  const Pcb pcb = Pcb::originate(t.as_id(1), t.interface_of(0, 1),
                                 TimePoint::origin(), Duration::hours(6), sk, fk);
  a_server.handle_pcb(std::make_shared<const Pcb>(pcb), 0, TimePoint::origin());
  EXPECT_EQ(a_server.store().total_stored(), 0u);
  EXPECT_EQ(a_server.stats().verify_failures, 1u);
}

TEST(BeaconServer, IntraIsdFlowsDownhillOnly) {
  const topo::Topology t = intra_chain();
  crypto::KeyStore keys{kDomain};
  BeaconServerConfig config = baseline_config();
  config.mode = BeaconingMode::kIntraIsd;

  SendCollector core_out;
  BeaconServer core_server{t, 0, config, keys, kDomain, core_out.fn()};
  SendCollector mid_out;
  BeaconServer mid_server{t, 1, config, keys, kDomain, mid_out.fn()};
  SendCollector leaf_out;
  BeaconServer leaf_server{t, 2, config, keys, kDomain, leaf_out.fn()};

  // Core originates towards its customer (link 0 only).
  core_server.on_interval(TimePoint::origin());
  ASSERT_EQ(core_out.sent.size(), 1u);
  EXPECT_EQ(core_out.sent[0].first, 0u);

  const TimePoint t1 = TimePoint::origin() + Duration::seconds(1);
  mid_server.handle_pcb(core_out.sent[0].second, 0, t1);
  EXPECT_EQ(mid_server.store().total_stored(), 1u);

  // Mid propagates to its customer (leaf) only — never to the peer or back
  // up to the provider.
  mid_server.on_interval(t1 + Duration::minutes(10));
  ASSERT_EQ(mid_out.sent.size(), 1u);
  EXPECT_EQ(mid_out.sent[0].first, 1u);

  const TimePoint t2 = t1 + Duration::minutes(10) + Duration::seconds(1);
  leaf_server.handle_pcb(mid_out.sent[0].second, 1, t2);
  EXPECT_EQ(leaf_server.store().total_stored(), 1u);

  // Leaf has no customers: nothing to propagate, nothing originated.
  leaf_server.on_interval(t2 + Duration::minutes(10));
  EXPECT_TRUE(leaf_out.sent.empty());
}

TEST(BeaconServer, IntraIsdIncludesPeerEntries) {
  const topo::Topology t = intra_chain();
  crypto::KeyStore keys{kDomain};
  BeaconServerConfig config = baseline_config();
  config.mode = BeaconingMode::kIntraIsd;
  config.include_peer_entries = true;

  SendCollector core_out;
  BeaconServer core_server{t, 0, config, keys, kDomain, core_out.fn()};
  SendCollector mid_out;
  BeaconServer mid_server{t, 1, config, keys, kDomain, mid_out.fn()};

  core_server.on_interval(TimePoint::origin());
  mid_server.handle_pcb(core_out.sent[0].second, 0,
                        TimePoint::origin() + Duration::seconds(1));
  mid_server.on_interval(TimePoint::origin() + Duration::minutes(10));
  ASSERT_EQ(mid_out.sent.size(), 1u);
  const PcbRef& pcb = mid_out.sent[0].second;
  ASSERT_EQ(pcb->entries().size(), 2u);
  ASSERT_EQ(pcb->entries()[1].peers.size(), 1u);
  EXPECT_EQ(pcb->entries()[1].peers[0].peer_as, t.as_id(3));
  EXPECT_TRUE(pcb->verify(keys));
}

TEST(BeaconServer, DiversityOriginationSuppressedWhileFresh) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  BeaconServerConfig config;
  config.algorithm = AlgorithmKind::kDiversity;

  SendCollector collector;
  BeaconServer server{t, 0, config, keys, kDomain, collector.fn()};
  server.on_interval(TimePoint::origin());
  const std::size_t first = collector.sent.size();
  EXPECT_EQ(first, 3u) << "first interval originates everywhere";

  collector.sent.clear();
  server.on_interval(TimePoint::origin() + Duration::minutes(10));
  EXPECT_TRUE(collector.sent.empty())
      << "second interval must not re-originate fresh paths";

  // Near expiry, origination resumes.
  collector.sent.clear();
  server.on_interval(TimePoint::origin() + Duration::minutes(330));
  EXPECT_EQ(collector.sent.size(), 3u);
}

TEST(BeaconServer, BaselineDisseminationLimitPerInterface) {
  const topo::Topology t = core_triangle();
  crypto::KeyStore keys{kDomain};
  BeaconServerConfig config = baseline_config();
  config.dissemination_limit = 2;

  SendCollector b_out;
  BeaconServer b_server{t, 1, config, keys, kDomain, b_out.fn()};
  SendCollector a_out;
  BeaconServer a_server{t, 0, config, keys, kDomain, a_out.fn()};

  // Feed A five distinct B-origin paths by letting B originate repeatedly
  // over both parallel links plus via C (simulated by distinct out_ifs).
  b_server.on_interval(TimePoint::origin());
  const TimePoint t1 = TimePoint::origin() + Duration::seconds(1);
  for (const auto& [egress, pcb] : b_out.sent) {
    if (egress == 0 || egress == 1) a_server.handle_pcb(pcb, egress, t1);
  }
  EXPECT_EQ(a_server.store().total_stored(), 2u);

  a_out.sent.clear();
  a_server.on_interval(t1 + Duration::minutes(10));
  // Towards C (link 2): at most 2 B-origin PCBs.
  std::size_t b_origin_to_c = 0;
  for (const auto& [egress, pcb] : a_out.sent) {
    if (egress == 2 && pcb->origin() == t.as_id(1)) ++b_origin_to_c;
  }
  EXPECT_LE(b_origin_to_c, 2u);
  EXPECT_GE(b_origin_to_c, 1u);
}

// Baseline selection runs once per (neighbor, origin): the neighbor's
// parallel links carry the same PCBs, link by link, each link getting the
// whole selection in turn.
TEST(BeaconServer, BaselineSendsTheSameSelectionOnParallelLinks) {
  // A(0) = B(1) over links 0 and 1; A, C(2), D(3), E(4) fully meshed, so A
  // holds several paths per origin, none through B.
  topo::Topology t;
  for (std::uint64_t i = 0; i < 5; ++i) t.add_as(topo::IsdAsId::make(1, i + 1), true);
  t.add_link(0, 1, topo::LinkType::kCore);  // link 0
  t.add_link(0, 1, topo::LinkType::kCore);  // link 1
  t.add_link(0, 2, topo::LinkType::kCore);
  t.add_link(0, 3, topo::LinkType::kCore);
  t.add_link(0, 4, topo::LinkType::kCore);
  t.add_link(2, 3, topo::LinkType::kCore);
  t.add_link(3, 4, topo::LinkType::kCore);
  t.add_link(2, 4, topo::LinkType::kCore);
  BeaconServerConfig config = baseline_config();
  config.compute_crypto = false;
  config.dissemination_limit = 2;
  BeaconingSimConfig sim_config;
  sim_config.server = config;
  sim_config.sim_duration = Duration::hours(1);
  BeaconingSim sim{t, sim_config};
  sim.run();

  // A fresh server for A, fed the PCBs A stored during the run.
  crypto::KeyStore keys{kDomain};
  SendCollector collector;
  BeaconServer server{t, 0, config, keys, kDomain, collector.fn()};
  const TimePoint now = sim.simulator().now();
  const BeaconStore& held = sim.server(0).store();
  for (const topo::IsdAsId origin : held.origins()) {
    for (const StoredPcb& e : held.for_origin(origin)) {
      server.handle_pcb(e.pcb, e.links.back(), now);
    }
  }
  server.on_interval(now);

  std::vector<std::pair<topo::LinkIndex, PcbRef>> to_b;
  for (const auto& [egress, pcb] : collector.sent) {
    if (egress <= 1 && pcb->hops() > 1) to_b.emplace_back(egress, pcb);
  }
  std::size_t origins = 0;
  std::size_t multi = 0;
  for (std::size_t i = 0; i < to_b.size();) {
    std::size_t end = i;
    while (end < to_b.size() &&
           to_b[end].second->origin() == to_b[i].second->origin()) {
      ++end;
    }
    // Link 0 gets the selection, then link 1 gets it again.
    const std::size_t k = (end - i) / 2;
    ASSERT_EQ(end - i, 2 * k);
    for (std::size_t n = 0; n < k; ++n) {
      const auto& [l0, p0] = to_b[i + n];
      const auto& [l1, p1] = to_b[i + k + n];
      EXPECT_EQ(l0, 0u);
      EXPECT_EQ(l1, 1u);
      EXPECT_EQ(p0->timestamp(), p1->timestamp());
      ASSERT_EQ(p0->hops(), p1->hops());
      for (std::size_t h = 0; h < p0->hops(); ++h) {
        const AsEntry& e0 = p0->entries()[h];
        const AsEntry& e1 = p1->entries()[h];
        EXPECT_EQ(e0.isd_as, e1.isd_as);
        EXPECT_EQ(e0.in_if, e1.in_if);
        if (h + 1 < p0->hops()) {
          EXPECT_EQ(e0.out_if, e1.out_if);
        }
      }
      EXPECT_EQ(p0->entries().back().out_if, t.interface_of(0, 0));
      EXPECT_EQ(p1->entries().back().out_if, t.interface_of(1, 0));
    }
    ++origins;
    multi += k > 1;
    i = end;
  }
  EXPECT_EQ(origins, 3u) << "origins C, D and E propagate towards B";
  EXPECT_GT(multi, 0u) << "some selection must hold more than one PCB";
}

}  // namespace
}  // namespace scion::ctrl
