#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "crypto/sha256.hpp"
#include "faults/fault_injector.hpp"
#include "scion/control_plane_sim.hpp"
#include "scion/dataplane.hpp"
#include "scion/path_combiner.hpp"
#include "scion/path_server.hpp"
#include "scion/scmp.hpp"
#include "scion/segment.hpp"
#include "topology/generator.hpp"

namespace scion::svc {
namespace {

using util::Duration;
using util::TimePoint;

constexpr std::uint64_t kDomain = crypto::kDefaultKeyDomainSeed;

// --- Reference combiner --------------------------------------------------------------
//
// The eager combiner that combine_segments replaced, kept as its reference:
// it builds and loop-checks every candidate path, stable-sorts them all by
// length, then drops duplicates by a hash of the link sequence and caps.

void reference_append_forward(EndToEndPath& path, const PathSegment& seg,
                              std::size_t from_idx, bool include_first_as) {
  for (std::size_t i = from_idx; i + 1 < seg.ases.size(); ++i) {
    if (i != from_idx || include_first_as) path.ases.push_back(seg.ases[i]);
    path.links.push_back(seg.links[i]);
  }
  path.ases.push_back(seg.ases.back());
}

void reference_append_reverse(EndToEndPath& path, const PathSegment& seg,
                              std::size_t to_idx, bool include_terminal_as) {
  if (include_terminal_as) path.ases.push_back(seg.ases.back());
  for (std::size_t i = seg.ases.size() - 1; i > to_idx; --i) {
    path.links.push_back(seg.links[i - 1]);
    path.ases.push_back(seg.ases[i - 1]);
  }
}

std::vector<EndToEndPath> reference_combine(
    const topo::Topology& topology, topo::AsIndex src, topo::AsIndex dst,
    std::span<const SegmentRef> up, std::span<const SegmentRef> core,
    std::span<const SegmentRef> down, const CombineOptions& options = {}) {
  std::vector<EndToEndPath> out;
  if (src == dst) return out;
  auto consider = [&](EndToEndPath&& path) {
    std::unordered_set<topo::AsIndex> seen;
    for (topo::AsIndex as : path.ases) {
      if (!seen.insert(as).second) return;
    }
    out.push_back(std::move(path));
  };

  if (topology.is_core(src)) {
    for (const SegmentRef& d : down) {
      if (d->terminal_as() != dst) continue;
      if (d->origin_as() == src) {
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpDown;
        path.down = d;
        reference_append_forward(path, *d, 0, true);
        consider(std::move(path));
      }
      for (const SegmentRef& c : core) {
        if (c->terminal_as() != src || c->origin_as() != d->origin_as()) {
          continue;
        }
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpCoreDown;
        path.core = c;
        path.down = d;
        reference_append_reverse(path, *c, 0, true);
        reference_append_forward(path, *d, 0, false);
        consider(std::move(path));
      }
    }
    if (topology.is_core(dst)) {
      for (const SegmentRef& c : core) {
        if (c->terminal_as() != src || c->origin_as() != dst) continue;
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpCoreDown;
        path.core = c;
        reference_append_reverse(path, *c, 0, true);
        consider(std::move(path));
      }
    }
  }

  for (const SegmentRef& u : up) {
    if (u->terminal_as() != src) continue;
    if (topology.is_core(dst)) {
      if (u->origin_as() == dst) {
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpDown;
        path.up = u;
        reference_append_reverse(path, *u, 0, true);
        consider(std::move(path));
      }
      for (const SegmentRef& c : core) {
        if (c->terminal_as() != u->origin_as() || c->origin_as() != dst) {
          continue;
        }
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpCoreDown;
        path.up = u;
        path.core = c;
        reference_append_reverse(path, *u, 0, true);
        reference_append_reverse(path, *c, 0, false);
        consider(std::move(path));
      }
    }

    for (const SegmentRef& d : down) {
      if (d->terminal_as() != dst) continue;
      if (u->origin_as() == d->origin_as()) {
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpDown;
        path.up = u;
        path.down = d;
        reference_append_reverse(path, *u, 0, true);
        reference_append_forward(path, *d, 0, false);
        consider(std::move(path));
      }
      for (std::size_t i = 1; i < u->ases.size(); ++i) {
        for (std::size_t j = 1; j < d->ases.size(); ++j) {
          if (u->ases[i] != d->ases[j]) continue;
          EndToEndPath path;
          path.kind = EndToEndPath::Kind::kShortcut;
          path.up = u;
          path.down = d;
          path.up_cut = i;
          path.down_cut = j;
          reference_append_reverse(path, *u, i, true);
          reference_append_forward(path, *d, j, false);
          consider(std::move(path));
        }
      }
      const auto& u_entries = u->pcb->entries();
      const auto& d_entries = d->pcb->entries();
      for (std::size_t i = 1; i < u->ases.size(); ++i) {
        for (const ctrl::PeerEntry& pu : u_entries[i].peers) {
          for (std::size_t j = 1; j < d->ases.size(); ++j) {
            if (topology.as_id(d->ases[j]) != pu.peer_as) continue;
            for (const ctrl::PeerEntry& pd : d_entries[j].peers) {
              if (pd.peer_as != topology.as_id(u->ases[i])) continue;
              const auto lu =
                  topology.link_by_interface(u->ases[i], pu.peer_if);
              const auto ld =
                  topology.link_by_interface(d->ases[j], pd.peer_if);
              if (!lu || !ld || *lu != *ld) continue;
              EndToEndPath path;
              path.kind = EndToEndPath::Kind::kPeering;
              path.up = u;
              path.down = d;
              path.up_cut = i;
              path.down_cut = j;
              path.peer_link = *lu;
              reference_append_reverse(path, *u, i, true);
              path.links.push_back(*lu);
              reference_append_forward(path, *d, j, true);
              consider(std::move(path));
            }
          }
        }
      }
    }

    for (const SegmentRef& c : core) {
      if (c->terminal_as() != u->origin_as()) continue;
      for (const SegmentRef& d : down) {
        if (d->terminal_as() != dst) continue;
        if (d->origin_as() != c->origin_as()) continue;
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpCoreDown;
        path.up = u;
        path.core = c;
        path.down = d;
        reference_append_reverse(path, *u, 0, true);
        reference_append_reverse(path, *c, 0, false);
        reference_append_forward(path, *d, 0, false);
        consider(std::move(path));
      }
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const EndToEndPath& x, const EndToEndPath& y) {
                     return x.length() < y.length();
                   });
  std::unordered_set<std::uint64_t> seen;
  std::vector<EndToEndPath> unique;
  for (EndToEndPath& p : out) {
    crypto::Sha256 h;
    for (topo::LinkIndex l : p.links) h.update_u32(l);
    if (!seen.insert(h.finalize().prefix64()).second) continue;
    unique.push_back(std::move(p));
    if (unique.size() >= options.max_paths) break;
  }
  return unique;
}

/// Both combiners, on the same segments, must return the same paths in the
/// same order, built from the same segment objects.
void expect_same_paths(const std::vector<EndToEndPath>& got,
                       const std::vector<EndToEndPath>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("path " + std::to_string(i));
    EXPECT_EQ(got[i].kind, want[i].kind);
    EXPECT_EQ(got[i].ases, want[i].ases);
    EXPECT_EQ(got[i].links, want[i].links);
    EXPECT_EQ(got[i].up_cut, want[i].up_cut);
    EXPECT_EQ(got[i].down_cut, want[i].down_cut);
    EXPECT_EQ(got[i].peer_link, want[i].peer_link);
    EXPECT_EQ(got[i].up, want[i].up);
    EXPECT_EQ(got[i].core, want[i].core);
    EXPECT_EQ(got[i].down, want[i].down);
  }
}

/// Compares both combiners on one input at one cap; returns the path count.
std::size_t expect_combiners_agree(const topo::Topology& topology,
                                   topo::AsIndex src, topo::AsIndex dst,
                                   std::span<const SegmentRef> up,
                                   std::span<const SegmentRef> core,
                                   std::span<const SegmentRef> down,
                                   std::size_t max_paths) {
  SCOPED_TRACE("max_paths " + std::to_string(max_paths));
  CombineOptions options;
  options.max_paths = max_paths;
  const std::vector<EndToEndPath> want =
      reference_combine(topology, src, dst, up, core, down, options);
  expect_same_paths(
      combine_segments(topology, src, dst, up, core, down, options), want);
  return want.size();
}

/// Two-ISD world:
///   C1(0) --core-- C2(1)                                    link 0
///   C1 -> A(2) -> S(3)   (ISD 1 customer chain)             links 1, 2
///   C1 -> B(4) -> S      (second up path for S)             links 3, 4
///   A  -> S2(5)          (sibling leaf for shortcut)        link 5
///   C2 -> D(6) -> T(7)   (ISD 2 customer chain)             links 6, 7
///   A --peer-- D         (inter-ISD peering)                link 8
struct WorldFixture : ::testing::Test {
  topo::Topology t;
  crypto::KeyStore keys{kDomain};
  TimePoint t0 = TimePoint::origin();
  Duration lifetime = Duration::hours(6);

  topo::AsIndex c1, c2, a, s, b, s2, d, tt;

  void SetUp() override {
    c1 = t.add_as(topo::IsdAsId::make(1, 1), true);
    c2 = t.add_as(topo::IsdAsId::make(2, 2), true);
    a = t.add_as(topo::IsdAsId::make(1, 3), false);
    s = t.add_as(topo::IsdAsId::make(1, 4), false);
    b = t.add_as(topo::IsdAsId::make(1, 5), false);
    s2 = t.add_as(topo::IsdAsId::make(1, 6), false);
    d = t.add_as(topo::IsdAsId::make(2, 7), false);
    tt = t.add_as(topo::IsdAsId::make(2, 8), false);
    t.add_link(c1, c2, topo::LinkType::kCore);              // 0
    t.add_link(c1, a, topo::LinkType::kProviderCustomer);   // 1
    t.add_link(a, s, topo::LinkType::kProviderCustomer);    // 2
    t.add_link(c1, b, topo::LinkType::kProviderCustomer);   // 3
    t.add_link(b, s, topo::LinkType::kProviderCustomer);    // 4
    t.add_link(a, s2, topo::LinkType::kProviderCustomer);   // 5
    t.add_link(c2, d, topo::LinkType::kProviderCustomer);   // 6
    t.add_link(d, tt, topo::LinkType::kProviderCustomer);   // 7
    t.add_link(a, d, topo::LinkType::kPeer);                // 8
  }

  crypto::SigningKey sk(topo::AsIndex as) {
    return keys.key_for(t.as_id(as).value());
  }
  crypto::ForwardingKey fk(topo::AsIndex as) {
    return crypto::ForwardingKey::derive(t.as_id(as).value(), kDomain);
  }

  /// Peer entries an AS advertises (all its peering links).
  std::vector<ctrl::PeerEntry> peers_of(topo::AsIndex as) {
    std::vector<ctrl::PeerEntry> out;
    for (topo::LinkIndex l : t.links_of_type(as, topo::LinkType::kPeer)) {
      ctrl::PeerEntry p;
      p.peer_as = t.as_id(t.neighbor(l, as));
      p.peer_if = t.interface_of(l, as);
      out.push_back(p);
    }
    return out;
  }

  /// Builds a terminated segment along `ases` over `links` (PCB direction:
  /// origin first), with every intermediate AS advertising its peers.
  SegmentRef build_segment(std::vector<topo::AsIndex> ases,
                           std::vector<topo::LinkIndex> links) {
    ctrl::Pcb pcb = ctrl::Pcb::originate(
        t.as_id(ases[0]), t.interface_of(links[0], ases[0]), t0, lifetime,
        sk(ases[0]), fk(ases[0]));
    for (std::size_t i = 1; i + 1 < ases.size(); ++i) {
      pcb = pcb.extend_signed(t.as_id(ases[i]),
                              t.interface_of(links[i - 1], ases[i]),
                              t.interface_of(links[i], ases[i]),
                              peers_of(ases[i]), sk(ases[i]), fk(ases[i]));
    }
    ctrl::StoredPcb stored;
    stored.pcb = std::make_shared<const ctrl::Pcb>(std::move(pcb));
    stored.links = links;
    stored.received_at = t0;
    stored.path_key = stored.pcb->path_key();
    return make_segment(t, stored, ases.back(), sk(ases.back()),
                        fk(ases.back()), /*include_peers=*/true);
  }

  SegmentRef up_via_a() { return build_segment({c1, a, s}, {1, 2}); }
  SegmentRef up_via_b() { return build_segment({c1, b, s}, {3, 4}); }
  SegmentRef core_c1_c2() {
    // Core segment stored at C1 with origin C2.
    return build_segment({c2, c1}, {0});
  }
  SegmentRef down_to_t() { return build_segment({c2, d, tt}, {6, 7}); }
  SegmentRef down_to_s2() { return build_segment({c1, a, s2}, {1, 5}); }
};

// --- Segments ---------------------------------------------------------------------

TEST_F(WorldFixture, MakeSegmentTerminatesWithOwnerEntry) {
  const SegmentRef seg = up_via_a();
  EXPECT_EQ(seg->ases, (std::vector<topo::AsIndex>{c1, a, s}));
  EXPECT_EQ(seg->links, (std::vector<topo::LinkIndex>{1, 2}));
  EXPECT_EQ(seg->origin_as(), c1);
  EXPECT_EQ(seg->terminal_as(), s);
  EXPECT_EQ(seg->length(), 2u);
  ASSERT_EQ(seg->pcb->entries().size(), 3u);
  EXPECT_EQ(seg->pcb->entries().back().out_if, topo::kNoInterface);
  EXPECT_TRUE(seg->pcb->verify(keys));
}

TEST_F(WorldFixture, SegmentWireSizeGrowsWithTermination) {
  const SegmentRef seg = up_via_a();
  EXPECT_GT(seg->wire_size(),
            util::Bytes{ctrl::kPcbHeaderBytes +
                        2 * (ctrl::kAsEntryFixedBytes +
                             crypto::kSignatureBytes)});
}

// --- Combination -------------------------------------------------------------------

TEST_F(WorldFixture, CombinesUpCoreDown) {
  const auto up = std::vector{up_via_a()};
  const auto core = std::vector{core_c1_c2()};
  const auto down = std::vector{down_to_t()};
  const auto paths = combine_segments(t, s, tt, up, core, down);
  ASSERT_EQ(paths.size(), 2u) << "full core path + peering shortcut";

  // Shortest is the peering shortcut S-A-D-T.
  EXPECT_EQ(paths[0].kind, EndToEndPath::Kind::kPeering);
  EXPECT_EQ(paths[0].ases, (std::vector<topo::AsIndex>{s, a, d, tt}));
  EXPECT_EQ(paths[0].links, (std::vector<topo::LinkIndex>{2, 8, 7}));

  EXPECT_EQ(paths[1].kind, EndToEndPath::Kind::kUpCoreDown);
  EXPECT_EQ(paths[1].ases, (std::vector<topo::AsIndex>{s, a, c1, c2, d, tt}));
  EXPECT_EQ(paths[1].links, (std::vector<topo::LinkIndex>{2, 1, 0, 6, 7}));
}

TEST_F(WorldFixture, PeeringRequiresBothSidesAdvertising) {
  const auto up = std::vector{up_via_a()};
  const auto core = std::vector{core_c1_c2()};
  // Down segment built WITHOUT peer entries at D.
  ctrl::Pcb pcb = ctrl::Pcb::originate(t.as_id(c2), t.interface_of(6, c2), t0,
                                       lifetime, sk(c2), fk(c2));
  pcb = pcb.extend_signed(t.as_id(d), t.interface_of(6, d),
                          t.interface_of(7, d), {}, sk(d), fk(d));
  ctrl::StoredPcb stored;
  stored.pcb = std::make_shared<const ctrl::Pcb>(std::move(pcb));
  stored.links = {6, 7};
  stored.received_at = t0;
  stored.path_key = stored.pcb->path_key();
  const SegmentRef no_peer_down =
      make_segment(t, stored, tt, sk(tt), fk(tt), false);

  const auto paths =
      combine_segments(t, s, tt, up, core, std::vector{no_peer_down});
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].kind, EndToEndPath::Kind::kUpCoreDown);
}

TEST_F(WorldFixture, CombinesUpDownAtSameCore) {
  const auto up = std::vector{up_via_b()};
  const auto down = std::vector{down_to_s2()};
  const auto paths = combine_segments(t, s, s2, up, {}, down);
  ASSERT_FALSE(paths.empty());
  bool found_updown = false;
  for (const auto& p : paths) {
    if (p.kind == EndToEndPath::Kind::kUpDown) {
      found_updown = true;
      EXPECT_EQ(p.ases, (std::vector<topo::AsIndex>{s, b, c1, a, s2}));
    }
  }
  EXPECT_TRUE(found_updown);
}

TEST_F(WorldFixture, ShortcutCrossoverAtSharedAs) {
  const auto up = std::vector{up_via_a()};
  const auto down = std::vector{down_to_s2()};
  const auto paths = combine_segments(t, s, s2, up, {}, down);
  ASSERT_FALSE(paths.empty());
  // Shortest must be the shortcut S-A-S2, never touching C1.
  EXPECT_EQ(paths[0].kind, EndToEndPath::Kind::kShortcut);
  EXPECT_EQ(paths[0].ases, (std::vector<topo::AsIndex>{s, a, s2}));
  EXPECT_EQ(paths[0].links, (std::vector<topo::LinkIndex>{2, 5}));
}

TEST_F(WorldFixture, MultipleUpSegmentsMultiplyPaths) {
  const auto up = std::vector{up_via_a(), up_via_b()};
  const auto core = std::vector{core_c1_c2()};
  const auto down = std::vector{down_to_t()};
  const auto paths = combine_segments(t, s, tt, up, core, down);
  // via A (core), via B (core), peering via A.
  EXPECT_EQ(paths.size(), 3u);
}

TEST_F(WorldFixture, MaxPathsCaps) {
  const auto up = std::vector{up_via_a(), up_via_b()};
  const auto core = std::vector{core_c1_c2()};
  const auto down = std::vector{down_to_t()};
  CombineOptions options;
  options.max_paths = 1;
  const auto paths = combine_segments(t, s, tt, up, core, down, options);
  EXPECT_EQ(paths.size(), 1u);
}

TEST_F(WorldFixture, CombinerMatchesReferenceAtEveryCap) {
  struct Case {
    const char* name;
    topo::AsIndex src, dst;
    std::vector<SegmentRef> up, core, down;
  };
  const SegmentRef via_a = up_via_a();
  const std::vector<Case> cases{
      {"peering and core paths", s, tt, {via_a, up_via_b()}, {core_c1_c2()},
       {down_to_t()}},
      // The up+down path via C1 visits A twice and must be dropped.
      {"shortcut, looping up+down", s, s2, {via_a, up_via_b()}, {},
       {down_to_s2()}},
      // Every path twice: the second copy must be dropped.
      {"duplicate segments", s, tt, {via_a, up_via_b(), via_a},
       {core_c1_c2()}, {down_to_t()}},
      {"core source", c1, tt, {}, {core_c1_c2()}, {down_to_t()}},
      {"core source, own down segment", c1, s2, {}, {}, {down_to_s2()}},
      {"core to core", c1, c2, {}, {core_c1_c2()}, {}},
      {"core destination", s, c2, {via_a, up_via_b()}, {core_c1_c2()}, {}},
      {"up segment alone", s, c1, {via_a, up_via_b()}, {}, {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::size_t all = expect_combiners_agree(
        t, c.src, c.dst, c.up, c.core, c.down,
        std::numeric_limits<std::size_t>::max());
    EXPECT_GT(all, 0u);
    for (std::size_t cap = 1; cap <= all + 1; ++cap) {
      expect_combiners_agree(t, c.src, c.dst, c.up, c.core, c.down, cap);
    }
  }
}

TEST(CombinerReference, MatchesOnEveryLeafPairOfARun) {
  topo::MultiIsdConfig world_config;
  world_config.n_isds = 3;
  world_config.cores_per_isd = 2;
  world_config.ases_per_isd = 10;
  world_config.seed = 21;
  const topo::Topology world = topo::generate_multi_isd(world_config);
  ControlPlaneSimConfig config;
  config.sim_duration = Duration::minutes(30);
  config.lookups_per_second = 0.5;
  config.link_failures_per_hour = 6.0;
  config.registration_interval = Duration::minutes(15);
  config.seed = 8;
  ControlPlaneSim sim{world, config};
  sim.run();

  std::size_t pairs_with_paths = 0;
  for (const topo::AsIndex src : sim.leaves()) {
    for (const topo::AsIndex dst : sim.leaves()) {
      if (src == dst) continue;
      SCOPED_TRACE(world.as_id(src).to_string() + " -> " +
                   world.as_id(dst).to_string());
      const ControlPlaneSim::SegmentLookup l = sim.lookup_segments(src, dst);
      if (expect_combiners_agree(world, src, dst, l.up, l.core, l.down,
                                 CombineOptions{}.max_paths) > 0) {
        ++pairs_with_paths;
      }
      expect_combiners_agree(world, src, dst, l.up, l.core, l.down, 3);
    }
  }
  EXPECT_GT(pairs_with_paths, sim.leaves().size());
}

TEST_F(WorldFixture, MismatchedSegmentsYieldNothing) {
  // Up terminates at s, but we ask for paths from s2.
  const auto up = std::vector{up_via_a()};
  const auto down = std::vector{down_to_t()};
  EXPECT_TRUE(combine_segments(t, s2, tt, up, {}, down).empty());
}

// --- Data plane -------------------------------------------------------------------

TEST_F(WorldFixture, DataPlaneVerifiesCombinedPaths) {
  const auto up = std::vector{up_via_a()};
  const auto core = std::vector{core_c1_c2()};
  const auto down = std::vector{down_to_t()};
  const auto paths = combine_segments(t, s, tt, up, core, down);
  DataPlane dp{t, kDomain};
  for (const auto& p : paths) {
    std::string error;
    EXPECT_TRUE(dp.verify(p, &error)) << to_string(p.kind) << ": " << error;
    EXPECT_TRUE(dp.valid_at(p, t0 + Duration::hours(1)));
    EXPECT_FALSE(dp.valid_at(p, t0 + lifetime));
    const ForwardResult result = dp.forward(p);
    EXPECT_TRUE(result.delivered) << result.error;
    EXPECT_EQ(result.links_traversed, p.links.size());
  }
}

TEST_F(WorldFixture, DataPlaneRejectsForeignKeyDomain) {
  const auto up = std::vector{up_via_a()};
  const auto down = std::vector{down_to_s2()};
  const auto paths = combine_segments(t, s, s2, up, {}, down);
  ASSERT_FALSE(paths.empty());
  DataPlane dp{t, kDomain + 1};
  std::string error;
  EXPECT_FALSE(dp.verify(paths[0], &error));
  EXPECT_NE(error.find("MAC"), std::string::npos);
}

TEST_F(WorldFixture, ForwardStopsAtDownLink) {
  const auto up = std::vector{up_via_a()};
  const auto core = std::vector{core_c1_c2()};
  const auto down = std::vector{down_to_t()};
  const auto paths = combine_segments(t, s, tt, up, core, down);
  DataPlane dp{t, kDomain};
  const EndToEndPath& p = paths[1];  // the core path (links 2,1,0,6,7)
  const ForwardResult result =
      dp.forward(p, [](topo::LinkIndex l) { return l != 0; });
  EXPECT_FALSE(result.delivered);
  ASSERT_TRUE(result.failed_link.has_value());
  EXPECT_EQ(*result.failed_link, 0u);
  EXPECT_EQ(result.links_traversed, 2u);
}

TEST_F(WorldFixture, PacketHeaderBytesScaleWithSegments) {
  const auto up = std::vector{up_via_a()};
  const auto core = std::vector{core_c1_c2()};
  const auto down = std::vector{down_to_t()};
  const auto paths = combine_segments(t, s, tt, up, core, down);
  const auto& peering = paths[0];
  const auto& full = paths[1];
  EXPECT_GT(packet_header_bytes(full), packet_header_bytes(peering));
}

// --- Path server -------------------------------------------------------------------

TEST_F(WorldFixture, PathServerRegistersAndLooksUp) {
  PathServer ps{4};
  ps.register_down_segment(down_to_t());
  const auto segs = ps.down_segments(tt, t0 + Duration::hours(1));
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0]->terminal_as(), tt);
  EXPECT_TRUE(ps.down_segments(s, t0).empty());
  EXPECT_TRUE(ps.down_segments(tt, t0 + lifetime).empty())
      << "expired segments are filtered";
}

TEST_F(WorldFixture, PathServerDedupesByPathKey) {
  PathServer ps{4};
  ps.register_down_segment(down_to_t());
  ps.register_down_segment(down_to_t());
  EXPECT_EQ(ps.down_segments(tt, t0).size(), 1u);
}

TEST_F(WorldFixture, PathServerRevocationDropsAffected) {
  PathServer ps{4};
  ps.register_down_segment(down_to_t());   // uses links 6, 7
  ps.register_down_segment(down_to_s2());  // uses links 1, 5
  EXPECT_EQ(ps.revoke_link(7), 1u);
  EXPECT_TRUE(ps.down_segments(tt, t0).empty());
  EXPECT_EQ(ps.down_segments(s2, t0).size(), 1u);
}

TEST_F(WorldFixture, PathServerCacheTtl) {
  PathServer ps{4};
  ps.cache_put(tt, {down_to_t()}, t0, Duration::minutes(30));
  EXPECT_TRUE(ps.cache_get(tt, t0 + Duration::minutes(29)).has_value());
  EXPECT_FALSE(ps.cache_get(tt, t0 + Duration::minutes(31)).has_value());
  EXPECT_EQ(ps.stats().cache_hits, 1u);
  EXPECT_EQ(ps.stats().cache_misses, 1u);
}

TEST_F(WorldFixture, RegistrationBytesCoverSegments) {
  const std::vector<SegmentRef> segs{down_to_t(), down_to_s2()};
  EXPECT_EQ(registration_bytes(segs), kRegistrationHeaderBytes +
                                          util::Bytes{4} + segs[0]->wire_size() +
                                          util::Bytes{4} + segs[1]->wire_size());
}

// --- SCMP / failover ----------------------------------------------------------------

TEST_F(WorldFixture, PathManagerFailsOverAndRecovers) {
  const auto up = std::vector{up_via_a(), up_via_b()};
  const auto core = std::vector{core_c1_c2()};
  const auto down = std::vector{down_to_t()};
  PathManager manager;
  manager.set_paths(combine_segments(t, s, tt, up, core, down));
  ASSERT_EQ(manager.total_paths(), 3u);
  const EndToEndPath* active = manager.active();
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->kind, EndToEndPath::Kind::kPeering);

  // Kill the peering link: fail over to a core path.
  EXPECT_TRUE(manager.notify_revocation(8));
  EXPECT_EQ(manager.active()->kind, EndToEndPath::Kind::kUpCoreDown);
  EXPECT_EQ(manager.failovers(), 1u);
  EXPECT_EQ(manager.usable_paths(), 2u);

  // Kill link 2 (S-A): the up-via-b path survives.
  EXPECT_TRUE(manager.notify_revocation(2));
  EXPECT_EQ(manager.active()->up->links, (std::vector<topo::LinkIndex>{3, 4}));

  // Kill the core link: everything remaining dies.
  EXPECT_FALSE(manager.notify_revocation(0));
  EXPECT_EQ(manager.active(), nullptr);

  // Restoration brings connectivity back.
  manager.notify_restored(0);
  EXPECT_NE(manager.active(), nullptr);
}

TEST_F(WorldFixture, RevocationOfUnusedLinkIsNoop) {
  const auto up = std::vector{up_via_a()};
  const auto down = std::vector{down_to_s2()};
  PathManager manager;
  manager.set_paths(combine_segments(t, s, s2, up, {}, down));
  const std::size_t before = manager.usable_paths();
  EXPECT_TRUE(manager.notify_revocation(0));  // core link not on any path
  EXPECT_EQ(manager.usable_paths(), before);
  EXPECT_EQ(manager.failovers(), 0u);
}

TEST_F(WorldFixture, InjectedFaultsDriveScmpFailover) {
  // End-to-end SCMP reaction: a FaultInjector executes a scheduled outage
  // of the peering link against the network, and its hooks issue the
  // revocation / restoration notifications an SCMP beacon would carry.
  sim::Simulator simulator;
  sim::Network net{simulator};
  for (std::size_t i = 0; i < t.as_count(); ++i) net.add_node();
  for (topo::LinkIndex l = 0; l < t.link_count(); ++l) {
    net.add_channel(sim::NodeId{t.link(l).a}, sim::NodeId{t.link(l).b},
                    Duration::milliseconds(1));
  }

  PathManager manager;
  manager.set_paths(combine_segments(
      t, s, tt, std::vector{up_via_a(), up_via_b()},
      std::vector{core_c1_c2()}, std::vector{down_to_t()}));
  ASSERT_EQ(manager.total_paths(), 3u);
  ASSERT_EQ(manager.active()->kind, EndToEndPath::Kind::kPeering);

  faults::FaultPlan plan;
  plan.events.push_back(faults::Event{faults::Event::Kind::kLinkDown, 8,
                                      Duration::seconds(10),
                                      Duration::seconds(30)});
  faults::FaultInjector::Hooks hooks;
  hooks.on_link_down = [&](topo::LinkIndex l) { manager.notify_revocation(l); };
  hooks.on_link_up = [&](topo::LinkIndex l) { manager.notify_restored(l); };
  faults::FaultInjector injector{net, plan, &t, hooks};
  injector.arm(TimePoint::origin() + Duration::minutes(2));

  simulator.run_until(TimePoint::origin() + Duration::seconds(15));
  EXPECT_FALSE(net.channel_up(sim::ChannelId{8}));
  ASSERT_NE(manager.active(), nullptr);
  EXPECT_EQ(manager.active()->kind, EndToEndPath::Kind::kUpCoreDown)
      << "failed over off the dead peering link";
  EXPECT_EQ(manager.failovers(), 1u);

  EXPECT_EQ(manager.usable_paths(), 2u);

  simulator.run_until(TimePoint::origin() + Duration::minutes(1));
  EXPECT_TRUE(net.channel_up(sim::ChannelId{8}));
  EXPECT_EQ(manager.usable_paths(), 3u)
      << "restoration re-enables the peering path";
  EXPECT_EQ(manager.active()->kind, EndToEndPath::Kind::kUpCoreDown)
      << "a working active path is not preempted";
}

TEST(Revocation, ActiveWindow) {
  Revocation rev;
  rev.link = 3;
  rev.issued = TimePoint::origin() + Duration::seconds(100);
  rev.validity = Duration::seconds(10);
  EXPECT_FALSE(rev.active_at(TimePoint::origin()));
  EXPECT_TRUE(rev.active_at(rev.issued + Duration::seconds(5)));
  EXPECT_FALSE(rev.active_at(rev.issued + Duration::seconds(10)));
}

}  // namespace
}  // namespace scion::svc
