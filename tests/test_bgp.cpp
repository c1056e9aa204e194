#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bgp/bgp_sim.hpp"
#include "bgp/messages.hpp"
#include "bgp/policy.hpp"
#include "bgp/speaker.hpp"
#include "faults/fault_plan.hpp"
#include "reference_speaker.hpp"
#include "simnet/simulator.hpp"
#include "topology/generator.hpp"

namespace scion::bgp {
namespace {

using util::Duration;

// --- Message sizes ---------------------------------------------------------------

TEST(Messages, BgpUpdateSizeFollowsRfc4271) {
  // Header 19 + lengths 4 + origin 4 + next-hop 7 + extra attrs + as-path
  // header 5 + one NLRI.
  EXPECT_EQ(bgp_update_size(0, 1, 0),
            util::Bytes{19u + 4 + 4 + 7 + kBgpExtraAttrBytes + 5 + 5});
  EXPECT_EQ(bgp_update_size(3, 1, 0),
            bgp_update_size(0, 1, 0) + util::Bytes{3 * 4});
  EXPECT_EQ(bgp_update_size(3, 4, 0),
            bgp_update_size(3, 1, 0) + util::Bytes{3 * 5});
  // Pure withdrawal has no path attributes.
  EXPECT_EQ(bgp_update_size(0, 0, 2), util::Bytes{19u + 4 + 2 * 5});
}

TEST(Messages, BgpsecPerHopCostDominates) {
  const std::size_t one_hop = bgpsec_update_size(1).value();
  const std::size_t two_hop = bgpsec_update_size(2).value();
  EXPECT_EQ(two_hop - one_hop, 6u + 118u);
  EXPECT_GT(one_hop, bgp_update_size(1, 1, 0).value() * 2)
      << "BGPsec updates are far larger than BGP";
  EXPECT_GT(bgpsec_update_size(4).value(),
            bgp_update_size(4, 1, 0).value() * 5);
}

TEST(Messages, AggregationOnlyHelpsBgp) {
  // 10 prefixes, 4-hop path: one BGP update vs 10 BGPsec updates.
  const std::size_t bgp_bytes = bgp_update_size(4, 10, 0).value();
  const std::size_t bgpsec_bytes = 10 * bgpsec_update_size(4).value();
  EXPECT_GT(bgpsec_bytes, 10 * bgp_bytes / 2);
}

TEST(Messages, UpdateWireSizeUsesContents) {
  BgpUpdateMsg msg;
  msg.announced = {1, 2};
  msg.path = std::make_shared<std::vector<topo::AsIndex>>(
      std::vector<topo::AsIndex>{7, 8, 9});
  msg.withdrawn = {3};
  EXPECT_EQ(update_wire_size(msg), bgp_update_size(3, 2, 1));
}

// --- Policy ----------------------------------------------------------------------

TEST(Policy, ClassifyFromLinkTypes) {
  topo::Topology t;
  const auto p = t.add_as(topo::IsdAsId::make(1, 1), true);
  const auto c = t.add_as(topo::IsdAsId::make(1, 2), false);
  const auto x = t.add_as(topo::IsdAsId::make(1, 3), false);
  t.add_link(p, c, topo::LinkType::kProviderCustomer);  // 0
  t.add_link(c, x, topo::LinkType::kPeer);              // 1
  t.add_link(p, x, topo::LinkType::kCore);              // 2
  EXPECT_EQ(classify(t, 0, p), Relationship::kCustomer);
  EXPECT_EQ(classify(t, 0, c), Relationship::kProvider);
  EXPECT_EQ(classify(t, 1, c), Relationship::kPeer);
  EXPECT_EQ(classify(t, 2, p), Relationship::kPeer);
}

TEST(Policy, GaoRexfordExportMatrix) {
  using R = Relationship;
  // Customer routes go everywhere.
  EXPECT_TRUE(may_export(R::kCustomer, R::kCustomer));
  EXPECT_TRUE(may_export(R::kCustomer, R::kPeer));
  EXPECT_TRUE(may_export(R::kCustomer, R::kProvider));
  // Peer/provider routes only to customers.
  EXPECT_TRUE(may_export(R::kPeer, R::kCustomer));
  EXPECT_FALSE(may_export(R::kPeer, R::kPeer));
  EXPECT_FALSE(may_export(R::kPeer, R::kProvider));
  EXPECT_TRUE(may_export(R::kProvider, R::kCustomer));
  EXPECT_FALSE(may_export(R::kProvider, R::kPeer));
  EXPECT_FALSE(may_export(R::kProvider, R::kProvider));
}

TEST(Policy, LocalPrefOrdering) {
  EXPECT_GT(local_pref(Relationship::kCustomer), local_pref(Relationship::kPeer));
  EXPECT_GT(local_pref(Relationship::kPeer), local_pref(Relationship::kProvider));
}

// --- Full simulation --------------------------------------------------------------

/// Chain: 0 --pc--> 1 --pc--> 2 (0 is 1's provider, 1 is 2's provider).
topo::Topology chain3() {
  topo::Topology t;
  const auto a = t.add_as(topo::IsdAsId::make(1, 1), true);
  const auto b = t.add_as(topo::IsdAsId::make(1, 2), false);
  const auto c = t.add_as(topo::IsdAsId::make(1, 3), false);
  t.add_link(a, b, topo::LinkType::kProviderCustomer);
  t.add_link(b, c, topo::LinkType::kProviderCustomer);
  return t;
}

BgpSimConfig quick_bgp_config() {
  BgpSimConfig config;
  config.convergence_window = Duration::minutes(10);
  config.churn_window = Duration::minutes(10);
  config.flaps_per_adjacency_per_day = 0.0;
  config.seed = 3;
  return config;
}

TEST(BgpSim, ChainConverges) {
  const topo::Topology t = chain3();
  BgpSim sim{t, quick_bgp_config()};
  sim.run();
  // Everyone reaches everyone in a chain (customer routes go up, provider
  // routes go down).
  for (topo::AsIndex a = 0; a < 3; ++a) {
    for (topo::AsIndex b = 0; b < 3; ++b) {
      if (a == b) continue;
      const auto best = sim.speaker(a).best(b);
      ASSERT_TRUE(best.has_value()) << a << " cannot reach " << b;
      EXPECT_EQ(best->path->back(), b);
    }
  }
}

TEST(BgpSim, ValleyFreePathsOnly) {
  // Two customers of different providers, providers peer:
  //   p1 --peer-- p2, p1 -> c1, p2 -> c2. c1 must reach c2 via p1-p2.
  topo::Topology t;
  const auto p1 = t.add_as(topo::IsdAsId::make(1, 1), true);
  const auto p2 = t.add_as(topo::IsdAsId::make(1, 2), true);
  const auto c1 = t.add_as(topo::IsdAsId::make(1, 3), false);
  const auto c2 = t.add_as(topo::IsdAsId::make(1, 4), false);
  t.add_link(p1, p2, topo::LinkType::kPeer);
  t.add_link(p1, c1, topo::LinkType::kProviderCustomer);
  t.add_link(p2, c2, topo::LinkType::kProviderCustomer);
  BgpSim sim{t, quick_bgp_config()};
  sim.run();

  const auto route = sim.speaker(c1).best(c2);
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(*route->path, (std::vector<topo::AsIndex>{p1, p2, c2}));
  // But p1 must NOT reach c2's sibling prefix via a peer-peer-peer valley:
  // c1's prefix is not exported from p1 to p2 (peer route via customer is
  // fine — customer routes go everywhere).
  const auto p2_to_c1 = sim.speaker(p2).best(c1);
  ASSERT_TRUE(p2_to_c1.has_value());
  EXPECT_EQ(*p2_to_c1->path, (std::vector<topo::AsIndex>{p1, c1}));
}

TEST(BgpSim, PeerRoutesNotReExportedToPeers) {
  // Triangle of peers plus a stub: peer routes must not transit.
  topo::Topology t;
  const auto a = t.add_as(topo::IsdAsId::make(1, 1), true);
  const auto b = t.add_as(topo::IsdAsId::make(1, 2), true);
  const auto c = t.add_as(topo::IsdAsId::make(1, 3), true);
  t.add_link(a, b, topo::LinkType::kPeer);
  t.add_link(b, c, topo::LinkType::kPeer);
  // No a-c link: a cannot reach c (b will not re-export a peer route).
  BgpSim sim{t, quick_bgp_config()};
  sim.run();
  EXPECT_FALSE(sim.speaker(a).best(c).has_value());
  EXPECT_TRUE(sim.speaker(a).best(b).has_value());
}

TEST(BgpSim, PrefersCustomerRoute) {
  // dst reachable from src both via a provider and via a customer; the
  // customer route must win even if longer.
  topo::Topology t;
  const auto src = t.add_as(topo::IsdAsId::make(1, 1), true);
  const auto prov = t.add_as(topo::IsdAsId::make(1, 2), true);
  const auto cust = t.add_as(topo::IsdAsId::make(1, 3), false);
  const auto mid = t.add_as(topo::IsdAsId::make(1, 4), false);
  const auto dst = t.add_as(topo::IsdAsId::make(1, 5), false);
  t.add_link(prov, src, topo::LinkType::kProviderCustomer);   // prov -> src
  t.add_link(src, cust, topo::LinkType::kProviderCustomer);   // src -> cust
  t.add_link(prov, dst, topo::LinkType::kProviderCustomer);   // short: via prov
  t.add_link(cust, mid, topo::LinkType::kProviderCustomer);   // long: via cust
  t.add_link(mid, dst, topo::LinkType::kProviderCustomer);
  BgpSim sim{t, quick_bgp_config()};
  sim.run();
  const auto best = sim.speaker(src).best(dst);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->learned_from, Relationship::kCustomer);
  EXPECT_EQ(best->path->front(), cust);
}

TEST(BgpSim, MultipathReturnsEqualBestSet) {
  // Two disjoint equal-length provider paths to dst.
  topo::Topology t;
  const auto src = t.add_as(topo::IsdAsId::make(1, 1), false);
  const auto m1 = t.add_as(topo::IsdAsId::make(1, 2), true);
  const auto m2 = t.add_as(topo::IsdAsId::make(1, 3), true);
  const auto dst = t.add_as(topo::IsdAsId::make(1, 4), false);
  t.add_link(m1, src, topo::LinkType::kProviderCustomer);
  t.add_link(m2, src, topo::LinkType::kProviderCustomer);
  t.add_link(m1, dst, topo::LinkType::kProviderCustomer);
  t.add_link(m2, dst, topo::LinkType::kProviderCustomer);
  BgpSim sim{t, quick_bgp_config()};
  sim.run();
  EXPECT_EQ(sim.speaker(src).multipath(dst).size(), 2u);
  const auto link_paths = sim.bgp_link_paths(src, dst);
  EXPECT_EQ(link_paths.size(), 2u);
  for (const auto& links : link_paths) EXPECT_EQ(links.size(), 2u);
}

TEST(BgpSim, LinkPathsIncludeParallelLinks) {
  topo::Topology t;
  const auto a = t.add_as(topo::IsdAsId::make(1, 1), true);
  const auto b = t.add_as(topo::IsdAsId::make(1, 2), false);
  t.add_link(a, b, topo::LinkType::kProviderCustomer);
  t.add_link(a, b, topo::LinkType::kProviderCustomer);
  BgpSim sim{t, quick_bgp_config()};
  sim.run();
  const auto paths = sim.bgp_link_paths(a, b);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].size(), 2u) << "multipath rides both parallel links";
}

TEST(BgpSim, SessionFlapWithdrawsAndRecovers) {
  const topo::Topology t = chain3();
  BgpSimConfig config = quick_bgp_config();
  BgpSim sim{t, config};
  sim.run();
  ASSERT_TRUE(sim.speaker(0).best(2).has_value());

  // Manually bounce the 1-2 session.
  auto& one = const_cast<Speaker&>(sim.speaker(1));
  auto& two = const_cast<Speaker&>(sim.speaker(2));
  one.session_down(one.neighbor_slot(2));
  two.session_down(two.neighbor_slot(1));
  EXPECT_FALSE(sim.speaker(2).best(0).has_value())
      << "withdrawal cascades locally at 2";
  one.session_up(one.neighbor_slot(2));
  two.session_up(two.neighbor_slot(1));
  sim.simulator().run();
  EXPECT_TRUE(sim.speaker(2).best(0).has_value());
  EXPECT_TRUE(sim.speaker(0).best(2).has_value());
}

// --- Churn-survival mechanisms (flap damping, graceful restart) -------------

/// Direct Speaker harness: a simulator backs the clock and every deferred
/// timer (MRAI, damping reuse, GR sweeps); sends are recorded. Neighbors are
/// ASes 1 and 2; prefixes 5 and 6 originate.
struct SpeakerFixture : ::testing::Test {
  sim::Simulator simulator;
  OriginSlots origins{{5, 6}, 10};
  std::vector<std::pair<NeighborSlot, BgpUpdateMsg>> sent;
  std::unique_ptr<Speaker> speaker;

  void make(SpeakerOptions options) {
    std::vector<Speaker::NeighborInfo> nbrs{
        {1, Relationship::kCustomer}, {2, Relationship::kCustomer}};
    speaker = std::make_unique<Speaker>(
        0, nbrs, origins, options,
        [this](NeighborSlot n, BgpUpdateMsg m) {
          sent.emplace_back(n, std::move(m));
        },
        [this](util::Duration d, TimerKind, std::function<void()> fn) {
          simulator.schedule_after(d, std::move(fn));
        },
        [this] { return simulator.now(); }, /*seed=*/7);
  }

  NeighborSlot slot(topo::AsIndex neighbor) const {
    return speaker->neighbor_slot(neighbor);
  }

  void announce(topo::AsIndex from, Prefix p,
                std::initializer_list<topo::AsIndex> path) {
    BgpUpdateMsg msg;
    msg.announced = {p};
    msg.path = std::make_shared<std::vector<topo::AsIndex>>(path);
    speaker->handle_update(slot(from), msg);
  }

  void withdraw(topo::AsIndex from, Prefix p) {
    BgpUpdateMsg msg;
    msg.withdrawn = {p};
    speaker->handle_update(slot(from), msg);
  }

  void run_until(util::Duration since_origin) {
    simulator.run_until(util::TimePoint::origin() + since_origin);
  }
};

TEST_F(SpeakerFixture, DampingSuppressesAndReusesAfterDecay) {
  SpeakerOptions options;
  options.damping.enabled = true;
  options.damping.half_life = Duration::minutes(1);
  options.damping.max_suppress = Duration::minutes(10);
  make(options);

  announce(1, 5, {1, 5});
  withdraw(1, 5);  // one flap: penalty 1000, below the 2000 threshold
  EXPECT_FALSE(speaker->is_suppressed(slot(1), 5));
  announce(1, 5, {1, 5});
  withdraw(1, 5);  // second flap with no decay between: suppressed
  EXPECT_TRUE(speaker->is_suppressed(slot(1), 5));
  EXPECT_EQ(speaker->routes_suppressed(), 1u);

  // Suppression removes the adjacency from the decision process; an
  // alternative via neighbor 2 wins even though it is longer.
  announce(1, 5, {1, 5});
  EXPECT_FALSE(speaker->best(5).has_value());
  announce(2, 5, {2, 9, 5});
  ASSERT_TRUE(speaker->best(5).has_value());
  EXPECT_EQ(speaker->best(5)->neighbor, 2u);

  // Penalty 2000 decays to the 750 reuse threshold after log2(2000/750)
  // half-lives (~85 s): still suppressed at 60 s, reusable by 120 s, and
  // the re-decision promotes the shorter path again.
  run_until(Duration::seconds(60));
  EXPECT_TRUE(speaker->is_suppressed(slot(1), 5));
  run_until(Duration::seconds(120));
  EXPECT_FALSE(speaker->is_suppressed(slot(1), 5));
  EXPECT_EQ(speaker->routes_reused(), 1u);
  ASSERT_TRUE(speaker->best(5).has_value());
  EXPECT_EQ(speaker->best(5)->neighbor, 1u);
}

TEST_F(SpeakerFixture, DampingPenaltyCapBoundsSuppression) {
  SpeakerOptions options;
  options.damping.enabled = true;
  options.damping.half_life = Duration::minutes(1);
  options.damping.max_suppress = Duration::minutes(2);
  make(options);

  // Hammer the adjacency far past the suppress threshold: the RFC 2439
  // penalty ceiling caps it so decaying back to reuse never takes longer
  // than max_suppress.
  for (int i = 0; i < 10; ++i) {
    announce(1, 5, {1, 5});
    withdraw(1, 5);
  }
  EXPECT_TRUE(speaker->is_suppressed(slot(1), 5));
  EXPECT_EQ(speaker->routes_suppressed(), 1u) << "one suppression episode";
  run_until(options.damping.max_suppress + Duration::seconds(5));
  EXPECT_FALSE(speaker->is_suppressed(slot(1), 5));
  EXPECT_EQ(speaker->routes_reused(), 1u);
}

TEST_F(SpeakerFixture, DampingOffMeansNoSuppression) {
  make(SpeakerOptions{});
  for (int i = 0; i < 10; ++i) {
    announce(1, 5, {1, 5});
    withdraw(1, 5);
  }
  EXPECT_EQ(speaker->routes_suppressed(), 0u);
  EXPECT_FALSE(speaker->is_suppressed(slot(1), 5));
  announce(1, 5, {1, 5});
  EXPECT_TRUE(speaker->best(5).has_value());
}

TEST_F(SpeakerFixture, GracefulRestartRetainsOnlyWhenForwardingPreserved) {
  SpeakerOptions options;
  options.graceful_restart.enabled = true;
  make(options);

  // A physical link loss flushes even with GR enabled: a stale route
  // through a dead link would mask live alternatives.
  announce(1, 5, {1, 5});
  speaker->session_down(slot(1), /*forwarding_preserved=*/false);
  EXPECT_FALSE(speaker->best(5).has_value());
  EXPECT_EQ(speaker->stale_retained(), 0u);

  // A process restart preserves the data plane: routes stay in the
  // decision process as stale survivors.
  speaker->session_up(slot(1));
  simulator.run();
  announce(1, 5, {1, 5});
  speaker->session_down(slot(1), /*forwarding_preserved=*/true);
  ASSERT_TRUE(speaker->best(5).has_value());
  EXPECT_EQ(speaker->best(5)->neighbor, 1u);
  EXPECT_EQ(speaker->stale_retained(), 1u);
}

TEST_F(SpeakerFixture, GracefulRestartStaleTimerFlushes) {
  SpeakerOptions options;
  options.graceful_restart.enabled = true;
  options.graceful_restart.stale_timer = Duration::minutes(3);
  make(options);

  announce(1, 5, {1, 5});
  speaker->session_down(slot(1), /*forwarding_preserved=*/true);
  run_until(Duration::minutes(2));
  EXPECT_TRUE(speaker->best(5).has_value()) << "stale but still forwarding";
  run_until(Duration::minutes(4));
  EXPECT_FALSE(speaker->best(5).has_value())
      << "the session never returned; the stale timer flushed";
  EXPECT_EQ(speaker->stale_expired(), 1u);
}

TEST_F(SpeakerFixture, GracefulRestartResyncSweepsUnrefreshedRoutes) {
  SpeakerOptions options;
  options.graceful_restart.enabled = true;
  options.graceful_restart.stale_timer = Duration::minutes(3);
  options.graceful_restart.resync_flush_delay = Duration::minutes(1);
  make(options);

  announce(1, 5, {1, 5});
  announce(1, 6, {1, 6});
  speaker->session_down(slot(1), /*forwarding_preserved=*/true);
  EXPECT_EQ(speaker->stale_retained(), 2u);

  // Session returns; the epoch bump voids the pending stale timer. The
  // peer's replay refreshes prefix 5 but never re-announces 6, so the
  // re-sync sweep (the End-of-RIB substitute) flushes only 6.
  speaker->session_up(slot(1));
  announce(1, 5, {1, 5});
  run_until(Duration::minutes(5));  // past both the sweep and the old timer
  EXPECT_TRUE(speaker->best(5).has_value()) << "refreshed by the replay";
  EXPECT_FALSE(speaker->best(6).has_value()) << "swept by the re-sync";
  EXPECT_EQ(speaker->stale_expired(), 1u);
}

// --- Lockstep against the reference speaker ---------------------------------

/// Drives bgp::Speaker and reference::Speaker (the speaker before its RIBs
/// became dense by origin slot, kept verbatim in reference_speaker.*) with
/// the same seeded random script, call by call, and renders everything
/// either one shows the outside after each step. The origins are sparse, so
/// a prefix's slot is not the prefix.
class Lockstep {
 public:
  static constexpr topo::AsIndex kSelf = 20;
  /// Prefixes up to 40 exist; these originate, kSelf's own among them.
  static constexpr std::size_t kPrefixSpace = 40;
  inline static const std::vector<Prefix> kOrigins{3, 8, 9, 14, 20, 27, 33};

  Lockstep(SpeakerOptions options, std::uint64_t script_seed)
      : origins_{kOrigins, kPrefixSpace}, script_{script_seed} {
    // Unsorted AS numbers, so the lowest-neighbor tie-break is not the
    // neighbor order.
    neighbors_ = {{31, Relationship::kCustomer},
                  {5, Relationship::kCustomer},
                  {17, Relationship::kPeer},
                  {44, Relationship::kProvider},
                  {12, Relationship::kCustomer}};
    const auto schedule_on = [](sim::Simulator& s) {
      return [&s](Duration d, TimerKind, std::function<void()> fn) {
        s.schedule_after(d, std::move(fn));
      };
    };
    std::vector<reference::Speaker::NeighborInfo> ref_neighbors;
    for (const auto& [as, rel] : neighbors_) ref_neighbors.push_back({as, rel});
    ref_ = std::make_unique<reference::Speaker>(
        kSelf, ref_neighbors, options,
        [this](topo::AsIndex to, BgpUpdateMsg m) {
          ref_log_ += render("to", to, m);
        },
        schedule_on(ref_sim_), [this] { return ref_sim_.now(); },
        /*seed=*/7);
    new_ = std::make_unique<Speaker>(
        kSelf, neighbors_, origins_, options,
        [this](NeighborSlot to, BgpUpdateMsg m) {
          new_log_ += render("to", neighbors_[to.value()].as, m);
        },
        schedule_on(new_sim_), [this] { return new_sim_.now(); },
        /*seed=*/7);
  }

  /// Runs `steps` random script steps; stops at the first divergence.
  void run(int steps) {
    ref_->originate(kSelf);
    new_->originate(kSelf);
    expect_same("originate");
    for (int i = 0; i < steps && !::testing::Test::HasFailure(); ++i) {
      expect_same(step());
    }
  }

 private:
  static std::string render(const AsPath& path) {
    if (!path) return "-";
    std::ostringstream out;
    out << "[";
    for (const topo::AsIndex as : *path) out << as << ",";
    out << "]";
    return out.str();
  }

  static std::string render(const std::vector<Prefix>& prefixes) {
    std::ostringstream out;
    out << "{";
    for (const Prefix p : prefixes) out << p << ",";
    out << "}";
    return out.str();
  }

  static std::string render(const char* dir, topo::AsIndex as,
                             const BgpUpdateMsg& m) {
    std::ostringstream out;
    out << "  " << dir << " " << as << " announce " << render(m.announced)
        << " path " << render(m.path) << " withdraw " << render(m.withdrawn)
        << "\n";
    return out.str();
  }

  template <typename Route>
  static void render_route(std::ostringstream& out, const Route& r) {
    out << " (" << r.neighbor << " " << to_string(r.learned_from)
        << (r.stale ? " stale " : " ") << render(r.path) << ")";
  }

  /// Best, multipath and suppression of every prefix (a non-originating
  /// one too), the five counters, and the UPDATEs sent since last time.
  template <typename S, typename Slot>
  static std::string render_state(const S& speaker, std::string& log,
                                  Slot&& slot) {
    std::ostringstream out;
    out << log;
    log.clear();
    for (Prefix p = 0; p < kPrefixSpace; ++p) {
      const auto best = speaker.best(p);
      const auto multipath = speaker.multipath(p);
      std::string suppressed;
      for (std::size_t n = 0; n < 5; ++n) {
        suppressed += speaker.is_suppressed(slot(n), p) ? '1' : '0';
      }
      if (!best && multipath.empty() && suppressed == "00000") continue;
      out << "  prefix " << p << " best";
      if (best) render_route(out, *best);
      out << " multipath";
      for (const auto& r : multipath) render_route(out, r);
      out << " suppressed " << suppressed << "\n";
    }
    out << "  counters " << speaker.updates_sent() << " "
        << speaker.routes_suppressed() << " " << speaker.routes_reused() << " "
        << speaker.stale_retained() << " " << speaker.stale_expired() << "\n";
    return out.str();
  }

  void expect_same(const std::string& what) {
    const std::string ref = render_state(
        *ref_, ref_log_, [this](std::size_t n) { return neighbors_[n].as; });
    const std::string now = render_state(*new_, new_log_, [](std::size_t n) {
      return NeighborSlot{static_cast<std::uint32_t>(n)};
    });
    EXPECT_EQ(ref, now) << "after " << what;
  }

  std::vector<Prefix> some_prefixes() {
    std::vector<Prefix> out;
    const std::size_t n = 1 + script_.index(3);
    for (std::size_t i = 0; i < n; ++i) {
      const Prefix p = script_.pick(kOrigins);
      if (std::find(out.begin(), out.end(), p) == out.end()) out.push_back(p);
    }
    return out;
  }

  /// A path from neighbor `as`: one to four hops over a small pool of
  /// transit ASes, so equal lengths (decision ties) are common; one in ten
  /// passes through kSelf (an AS-path loop the speaker must discard).
  AsPath some_path(topo::AsIndex as) {
    std::vector<topo::AsIndex> hops{as};
    const std::size_t extra = script_.index(4);
    for (std::size_t i = 0; i < extra; ++i) {
      hops.push_back(static_cast<topo::AsIndex>(50 + script_.index(6)));
    }
    if (script_.bernoulli(0.1)) {
      hops.insert(hops.begin() + 1 + script_.index(hops.size()), kSelf);
    }
    return std::make_shared<const std::vector<topo::AsIndex>>(hops);
  }

  std::string step() {
    const std::size_t n = script_.index(neighbors_.size());
    const topo::AsIndex as = neighbors_[n].as;
    const NeighborSlot slot{static_cast<std::uint32_t>(n)};
    const double kind = script_.uniform();
    if (kind < 0.4) {
      BgpUpdateMsg m;
      m.announced = some_prefixes();
      m.path = some_path(as);
      if (script_.bernoulli(0.2)) m.withdrawn = some_prefixes();
      ref_->handle_update(as, m);
      new_->handle_update(slot, m);
      return render("UPDATE from", as, m);
    }
    if (kind < 0.6) {
      BgpUpdateMsg m;
      m.withdrawn = some_prefixes();
      ref_->handle_update(as, m);
      new_->handle_update(slot, m);
      return render("UPDATE from", as, m);
    }
    if (kind < 0.68) {
      const bool preserved = script_.bernoulli(0.5);
      ref_->session_down(as, preserved);
      new_->session_down(slot, preserved);
      std::ostringstream what;
      what << "session_down " << as << (preserved ? " preserved" : "");
      return what.str();
    }
    if (kind < 0.76) {
      ref_->session_up(as);
      new_->session_up(slot);
      return "session_up " + std::to_string(as);
    }
    // Seconds fire MRAI flushes; minutes fire damping reuse and
    // graceful-restart timers.
    const Duration dt = script_.bernoulli(0.2)
                            ? Duration::minutes(script_.uniform_int(1, 10))
                            : Duration::seconds(script_.uniform_int(1, 40));
    ref_sim_.run_until(ref_sim_.now() + dt);
    new_sim_.run_until(new_sim_.now() + dt);
    return "advance " + std::to_string(dt.ns());
  }

  OriginSlots origins_;
  util::Rng script_;
  std::vector<Speaker::NeighborInfo> neighbors_;
  sim::Simulator ref_sim_;
  sim::Simulator new_sim_;
  std::string ref_log_;
  std::string new_log_;
  std::unique_ptr<reference::Speaker> ref_;
  std::unique_ptr<Speaker> new_;
};

TEST(SpeakerLockstep, MatchesTheReferenceSpeakerCallByCall) {
  for (const bool damping : {false, true}) {
    for (const bool graceful_restart : {false, true}) {
      for (const std::uint64_t seed : {1, 2, 3, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << "damping " << damping << ", graceful restart "
                     << graceful_restart << ", seed " << seed);
        SpeakerOptions options;
        options.damping.enabled = damping;
        options.damping.half_life = Duration::minutes(1);
        options.damping.max_suppress = Duration::minutes(5);
        options.graceful_restart.enabled = graceful_restart;
        Lockstep{options, seed}.run(400);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(BgpSim, SessionRestartEngagesGracefulRestart) {
  const topo::Topology t = chain3();
  BgpSimConfig config = quick_bgp_config();
  config.graceful_restart.enabled = true;
  faults::Event ev;
  ev.kind = faults::Event::Kind::kSessionRestart;
  ev.target = 1;  // the 1-2 link
  ev.at = Duration::minutes(1);
  ev.duration = Duration::seconds(90);
  config.faults.events.push_back(ev);
  BgpSim sim{t, config};
  sim.run();
  EXPECT_GT(sim.total_stale_retained(), 0u)
      << "a session restart preserves forwarding, so GR retains routes";
  EXPECT_TRUE(sim.speaker(0).best(2).has_value());
  EXPECT_TRUE(sim.speaker(2).best(0).has_value());
}

TEST(BgpSim, DampingCountersEngageUnderChurn) {
  const topo::Topology t = chain3();
  BgpSimConfig config = quick_bgp_config();
  config.damping.enabled = true;
  config.flaps_per_adjacency_per_day = 2000.0;  // several flaps per 15 min
  config.churn_window = Duration::hours(1);
  BgpSim sim{t, config};
  sim.run();
  EXPECT_GT(sim.total_routes_suppressed(), 0u);
}

TEST(BgpSim, MonitorsAccountPerOrigin) {
  topo::HierarchyConfig h;
  h.n_ases = 60;
  h.n_roots = 4;
  h.seed = 6;
  const topo::Topology t = topo::generate_hierarchy(h);
  BgpSimConfig config = quick_bgp_config();
  config.flaps_per_adjacency_per_day = 50.0;  // force churn
  config.churn_window = Duration::minutes(30);
  BgpSim sim{t, config};
  const topo::AsIndex monitor = 0;
  sim.add_monitor(monitor);
  sim.run();
  const MonitorAccount& acc = sim.monitor(monitor);
  EXPECT_GT(acc.raw_messages, 0u) << "churn must reach the monitor";
  EXPECT_GT(acc.per_origin.size(), 0u);

  const std::vector<std::uint32_t> ones(t.as_count(), 1);
  const double bgp_bytes = sim.monthly_bgp_bytes(monitor, ones);
  const double bgpsec_bytes = sim.monthly_bgpsec_bytes(monitor, ones);
  EXPECT_GT(bgp_bytes, 0.0);
  EXPECT_GT(bgpsec_bytes, bgp_bytes)
      << "BGPsec must cost more than BGP at the same monitor";
}

TEST(BgpSim, PrefixCountsScaleAccounting) {
  const topo::Topology t = chain3();
  BgpSimConfig config = quick_bgp_config();
  config.flaps_per_adjacency_per_day = 200.0;
  config.churn_window = Duration::hours(1);
  BgpSim sim{t, config};
  sim.add_monitor(0);
  sim.run();
  const std::vector<std::uint32_t> ones(3, 1);
  const std::vector<std::uint32_t> tens(3, 10);
  EXPECT_NEAR(sim.monthly_bgpsec_bytes(0, tens),
              10.0 * sim.monthly_bgpsec_bytes(0, ones), 1e-6);
  EXPECT_NEAR(sim.monthly_bgp_bytes(0, tens),
              10.0 * sim.monthly_bgp_bytes(0, ones), 1e-6);
  // Per prefix, BGPsec costs roughly an order of magnitude more than BGP
  // (per-hop signatures, no aggregation) — the Fig. 5 gap.
  const double ratio =
      sim.monthly_bgpsec_bytes(0, ones) / sim.monthly_bgp_bytes(0, ones);
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 40.0);
}

}  // namespace
}  // namespace scion::bgp
