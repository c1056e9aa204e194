#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/beacon_store.hpp"
#include "core/beaconing_sim.hpp"
#include "diversity_run.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace scion::ctrl {
namespace {

using util::Duration;
using util::TimePoint;

const Duration kLifetime = Duration::hours(6);

/// Builds a stored PCB whose entry chain is synthesized from the link ids
/// (so different link sequences give different path keys).
StoredPcb make_stored(IsdAsId origin, std::vector<topo::LinkIndex> links,
                      TimePoint timestamp) {
  Pcb pcb = Pcb::originate_unsigned(
      origin, static_cast<topo::IfId>(links.front() + 1), timestamp, kLifetime);
  for (std::size_t i = 1; i < links.size(); ++i) {
    pcb = pcb.extend_unsigned(
        IsdAsId::make(9, 100 + links[i - 1]),
        static_cast<topo::IfId>(links[i - 1] + 1),
        static_cast<topo::IfId>(links[i] + 1), {});
  }
  StoredPcb stored;
  stored.pcb = std::make_shared<const Pcb>(std::move(pcb));
  stored.links = std::move(links);
  stored.received_at = timestamp;
  stored.path_key = stored.pcb->path_key();
  return stored;
}

const IsdAsId kOrigin = IsdAsId::make(1, 1);

TEST(BeaconStore, InsertAndQuery) {
  BeaconStore store{10};
  EXPECT_EQ(store.insert(make_stored(kOrigin, {1}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kInserted);
  EXPECT_EQ(store.for_origin(kOrigin).size(), 1u);
  EXPECT_EQ(store.total_stored(), 1u);
  EXPECT_TRUE(store.for_origin(IsdAsId::make(2, 2)).empty());
}

TEST(BeaconStore, RefreshReplacesOlderInstance) {
  BeaconStore store{10};
  store.insert(make_stored(kOrigin, {1, 2}, TimePoint::origin()));
  const TimePoint newer = TimePoint::origin() + Duration::minutes(10);
  EXPECT_EQ(store.insert(make_stored(kOrigin, {1, 2}, newer)),
            BeaconStore::InsertOutcome::kRefreshed);
  ASSERT_EQ(store.for_origin(kOrigin).size(), 1u);
  EXPECT_EQ(store.for_origin(kOrigin)[0].pcb->timestamp(), newer);
}

TEST(BeaconStore, StaleInstanceIgnored) {
  BeaconStore store{10};
  const TimePoint newer = TimePoint::origin() + Duration::minutes(10);
  store.insert(make_stored(kOrigin, {1, 2}, newer));
  EXPECT_EQ(store.insert(make_stored(kOrigin, {1, 2}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kStale);
  EXPECT_EQ(store.for_origin(kOrigin)[0].pcb->timestamp(), newer);
}

TEST(BeaconStore, RespectsPerOriginLimit) {
  BeaconStore store{2};
  store.insert(make_stored(kOrigin, {1}, TimePoint::origin()));
  store.insert(make_stored(kOrigin, {2}, TimePoint::origin()));
  // Worse (longer) candidate is rejected when full.
  EXPECT_EQ(store.insert(make_stored(kOrigin, {3, 4}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kRejected);
  EXPECT_EQ(store.total_stored(), 2u);
}

TEST(BeaconStore, ShortestFreshEvictsLongerPath) {
  BeaconStore store{2, StorePolicy::kShortestFresh};
  store.insert(make_stored(kOrigin, {1, 2, 3}, TimePoint::origin()));
  store.insert(make_stored(kOrigin, {4}, TimePoint::origin()));
  // A 2-hop path beats the 3-hop one.
  EXPECT_EQ(store.insert(make_stored(kOrigin, {5, 6}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kReplaced);
  for (const StoredPcb& s : store.for_origin(kOrigin)) {
    EXPECT_LE(s.links.size(), 2u);
  }
}

TEST(BeaconStore, UnlimitedStorage) {
  BeaconStore store{0};
  for (topo::LinkIndex l = 0; l < 100; ++l) {
    store.insert(make_stored(kOrigin, {l}, TimePoint::origin()));
  }
  EXPECT_EQ(store.total_stored(), 100u);
}

TEST(BeaconStore, DiversityAwareEvictsRedundantPath) {
  BeaconStore store{3, StorePolicy::kDiversityAware};
  // Three paths, two of which share links {1,2}.
  store.insert(make_stored(kOrigin, {1, 2, 3}, TimePoint::origin()));
  store.insert(make_stored(kOrigin, {1, 2, 4}, TimePoint::origin()));
  store.insert(make_stored(kOrigin, {7, 8}, TimePoint::origin()));
  // A fully fresh path should replace one of the overlapping pair, not the
  // disjoint {7,8} one.
  EXPECT_EQ(store.insert(make_stored(kOrigin, {10, 11}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kReplaced);
  bool kept_disjoint = false;
  int overlapping = 0;
  for (const StoredPcb& s : store.for_origin(kOrigin)) {
    if (s.links == std::vector<topo::LinkIndex>{7, 8}) kept_disjoint = true;
    if (s.links.size() == 3) ++overlapping;
  }
  EXPECT_TRUE(kept_disjoint);
  EXPECT_EQ(overlapping, 1);
}

TEST(BeaconStore, DiversityAwareRejectsRedundantCandidate) {
  BeaconStore store{2, StorePolicy::kDiversityAware};
  store.insert(make_stored(kOrigin, {1, 2}, TimePoint::origin()));
  store.insert(make_stored(kOrigin, {3, 4}, TimePoint::origin()));
  // Candidate overlapping both stored paths is worse than either.
  EXPECT_EQ(store.insert(make_stored(kOrigin, {1, 3}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kRejected);
}

TEST(BeaconStore, ExpireDropsOnlyExpired) {
  BeaconStore store{10};
  store.insert(make_stored(kOrigin, {1}, TimePoint::origin()));
  store.insert(
      make_stored(kOrigin, {2}, TimePoint::origin() + Duration::hours(3)));
  store.expire(TimePoint::origin() + kLifetime);
  ASSERT_EQ(store.for_origin(kOrigin).size(), 1u);
  EXPECT_EQ(store.for_origin(kOrigin)[0].links, std::vector<topo::LinkIndex>{2});
}

TEST(BeaconStore, OriginsSortedAndLive) {
  BeaconStore store{10};
  const IsdAsId o2 = IsdAsId::make(2, 5);
  store.insert(make_stored(o2, {1}, TimePoint::origin()));
  store.insert(make_stored(kOrigin, {2}, TimePoint::origin()));
  EXPECT_EQ(store.origins(), (std::vector<IsdAsId>{kOrigin, o2}));
  store.expire(TimePoint::origin() + kLifetime);
  EXPECT_TRUE(store.origins().empty());
}

TEST(BeaconStore, SeparateBucketsPerOrigin) {
  BeaconStore store{1};
  const IsdAsId o2 = IsdAsId::make(2, 5);
  EXPECT_EQ(store.insert(make_stored(kOrigin, {1}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kInserted);
  EXPECT_EQ(store.insert(make_stored(o2, {2}, TimePoint::origin())),
            BeaconStore::InsertOutcome::kInserted);
  EXPECT_EQ(store.total_stored(), 2u);
}

/// `pcb` re-issued at `timestamp`, its last AS sending it out of
/// `last_out_if`.
PcbRef reissued(const Pcb& pcb, TimePoint timestamp, topo::IfId last_out_if) {
  std::vector<AsEntry> entries = pcb.entries();
  entries.back().out_if = last_out_if;
  Pcb out = Pcb::originate_unsigned(entries[0].isd_as, entries[0].out_if,
                                    timestamp, pcb.lifetime());
  for (std::size_t i = 1; i < entries.size(); ++i) out = out.extend(entries[i]);
  return std::make_shared<const Pcb>(std::move(out));
}

// The store identifies a path by its resolved links and hashes the path key
// only on admission. Reference: identity by pcb->path_key(). Every AS's
// PCBs from a finished run are offered to fresh stores, with newer and
// older re-issues, in seeded orders, under both policies, with room to
// spare and with a full bucket. The world is a full mesh of core ASes with
// parallel links, and each PCB is also offered as if it had arrived over
// each link parallel to its last one: paths that differ only in their
// last link, whatever the run's own stores kept.
TEST(BeaconStore, LinkIdentityMatchesPathKeyIdentity) {
  topo::HierarchyConfig world_config;
  world_config.n_ases = 6;
  world_config.n_roots = 6;
  world_config.seed = 3;
  const topo::Topology world = topo::generate_hierarchy(world_config);
  bool parallel = false;
  for (topo::AsIndex a = 0; a < world.as_count(); ++a) {
    for (topo::AsIndex b = a + 1; b < world.as_count(); ++b) {
      parallel |= world.links_between(a, b).size() > 1;
    }
  }
  ASSERT_TRUE(parallel);
  BeaconingSimConfig config;
  config.server.compute_crypto = false;
  config.sim_duration = Duration::hours(1);
  config.seed = 42;
  BeaconingSim sim{world, config};
  sim.run();

  struct Offer {
    PcbRef pcb;
    std::vector<topo::LinkIndex> links;
    std::uint64_t path_key;
  };
  std::array<std::size_t, 5> outcomes{};
  for (topo::AsIndex as = 0; as < world.as_count(); ++as) {
    const BeaconStore& held = sim.server(as).store();
    std::vector<Offer> offers;
    for (const IsdAsId origin : held.origins()) {
      for (const StoredPcb& e : held.for_origin(origin)) {
        const topo::AsIndex last = world.neighbor(e.links.back(), as);
        const TimePoint t = e.pcb->timestamp();
        for (const topo::LinkIndex in : world.links_between(last, as)) {
          std::vector<topo::LinkIndex> links = e.links;
          links.back() = in;
          const topo::IfId out_if = world.interface_of(in, last);
          for (const TimePoint when :
               {t, t + Duration::minutes(1), t - Duration::minutes(1)}) {
            const PcbRef pcb = when == t && in == e.links.back()
                                   ? e.pcb
                                   : reissued(*e.pcb, when, out_if);
            offers.push_back(Offer{pcb, links, pcb->path_key()});
          }
        }
      }
    }
    for (const StorePolicy policy :
         {StorePolicy::kShortestFresh, StorePolicy::kDiversityAware}) {
      for (const std::size_t limit : {config.server.storage_limit, std::size_t{3}}) {
        for (const std::uint64_t order : {1u, 2u}) {
          util::Rng rng = util::Rng::substream(order, as);
          rng.shuffle(offers);
          BeaconStore store{limit, policy};
          for (std::size_t i = 0; i < offers.size(); ++i) {
            const Offer& o = offers[i];
            bool same_path_stored = false;
            TimePoint stored_at{};
            for (const StoredPcb& e : store.for_origin(o.pcb->origin())) {
              if (e.pcb->path_key() == o.path_key) {
                same_path_stored = true;
                stored_at = e.pcb->timestamp();
              }
            }
            // With and without the caller's path key.
            const auto outcome =
                i % 2 == 0 ? store.insert(o.pcb, o.links, o.pcb->timestamp())
                           : store.insert(o.pcb, o.links, o.pcb->timestamp(), o.path_key);
            ++outcomes[static_cast<std::size_t>(outcome)];
            if (same_path_stored) {
              EXPECT_EQ(outcome, o.pcb->timestamp() > stored_at
                                     ? BeaconStore::InsertOutcome::kRefreshed
                                     : BeaconStore::InsertOutcome::kStale)
                  << "AS " << as << ", offer " << i;
            } else {
              EXPECT_NE(outcome, BeaconStore::InsertOutcome::kRefreshed)
                  << "AS " << as << ", offer " << i;
              EXPECT_NE(outcome, BeaconStore::InsertOutcome::kStale)
                  << "AS " << as << ", offer " << i;
            }
            for (const StoredPcb& e : store.for_origin(o.pcb->origin())) {
              EXPECT_EQ(e.path_key, e.pcb->path_key()) << "AS " << as;
            }
          }
        }
      }
    }
  }
  // Every outcome occurred, so every branch was compared.
  for (std::size_t n : outcomes) EXPECT_GT(n, 0u);
}

/// Reference kDiversityAware victim pick: coverage tallied in a (link,
/// count) list searched linearly.
std::size_t reference_pick_victim(const std::vector<StoredPcb>& bucket,
                                  std::span<const topo::LinkIndex> candidate,
                                  bool& candidate_wins) {
  std::vector<std::pair<topo::LinkIndex, int>> coverage;
  const auto coverage_of = [&](topo::LinkIndex l) {
    for (const auto& [link, n] : coverage) {
      if (link == l) return n;
    }
    return 0;
  };
  for (const StoredPcb& e : bucket) {
    for (topo::LinkIndex l : e.links) {
      auto it = std::find_if(coverage.begin(), coverage.end(),
                             [l](const auto& c) { return c.first == l; });
      if (it == coverage.end()) {
        coverage.emplace_back(l, 1);
      } else {
        ++it->second;
      }
    }
  }
  const auto shorter_or_later = [](const StoredPcb& x, const StoredPcb& y) {
    if (x.pcb->hops() != y.pcb->hops()) return x.pcb->hops() < y.pcb->hops();
    return x.pcb->expiry() > y.pcb->expiry();
  };
  std::size_t worst = 0;
  double worst_red = -1.0;
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    double sum = 0.0;
    for (topo::LinkIndex l : bucket[i].links) {
      sum += static_cast<double>(coverage_of(l) - 1);
    }
    const double red = bucket[i].links.empty()
                           ? 0.0
                           : sum / static_cast<double>(bucket[i].links.size());
    if (red > worst_red ||
        (red == worst_red && shorter_or_later(bucket[worst], bucket[i]))) {
      worst_red = red;
      worst = i;
    }
  }
  double sum = 0.0;
  for (topo::LinkIndex l : candidate) sum += static_cast<double>(coverage_of(l));
  const double cand_red =
      candidate.empty() ? 0.0 : sum / static_cast<double>(candidate.size());
  candidate_wins = cand_red < worst_red;
  return worst;
}

/// Reference admission of `offer` into one full-or-not bucket.
BeaconStore::InsertOutcome reference_insert(std::vector<StoredPcb>& bucket,
                                            std::size_t limit,
                                            const StoredPcb& offer) {
  for (StoredPcb& existing : bucket) {
    if (existing.links == offer.links) {
      if (offer.pcb->timestamp() <= existing.pcb->timestamp()) {
        return BeaconStore::InsertOutcome::kStale;
      }
      existing.pcb = offer.pcb;
      return BeaconStore::InsertOutcome::kRefreshed;
    }
  }
  if (bucket.size() < limit) {
    bucket.push_back(offer);
    return BeaconStore::InsertOutcome::kInserted;
  }
  bool candidate_wins = false;
  const std::size_t victim =
      reference_pick_victim(bucket, offer.links, candidate_wins);
  if (!candidate_wins) return BeaconStore::InsertOutcome::kRejected;
  bucket[victim] = offer;
  return BeaconStore::InsertOutcome::kReplaced;
}

std::vector<std::uint64_t> path_keys(const std::vector<StoredPcb>& bucket) {
  std::vector<std::uint64_t> keys;
  for (const StoredPcb& e : bucket) keys.push_back(e.path_key);
  return keys;
}

// The dense-coverage victim pick against the reference linear scan: every
// server's stored PCBs of a fixed-seed diversity run are replayed into
// fresh kDiversityAware stores, slot by slot. One extra path rides link
// 5000, far past every real link index, so the coverage table grows
// mid-replay and candidates run past its end.
TEST(BeaconStore, DiversityAwareEvictionMatchesLinearScanReference) {
  const topo::Topology world = diversity_run_world();
  BeaconingSim sim{world, diversity_run_config()};
  sim.run();

  std::array<std::size_t, 5> outcomes{};
  std::size_t far_path_picks = 0;
  for (topo::AsIndex as = 0; as < world.as_count(); ++as) {
    const BeaconStore& held = sim.server(as).store();
    std::vector<StoredPcb> offers;
    for (const IsdAsId origin : held.origins()) {
      for (const StoredPcb& e : held.for_origin(origin)) offers.push_back(e);
    }
    if (offers.empty()) continue;
    const StoredPcb& first = offers.front();
    const StoredPcb far = make_stored(
        first.pcb->origin(), {first.links.front(), 5000}, first.pcb->timestamp());
    offers.push_back(far);
    for (const std::size_t limit : {std::size_t{3}, std::size_t{10}}) {
      for (const std::uint64_t order : {1u, 2u}) {
        util::Rng rng = util::Rng::substream(order, as);
        rng.shuffle(offers);
        BeaconStore store{limit, StorePolicy::kDiversityAware};
        std::map<IsdAsId, std::vector<StoredPcb>> reference;
        for (std::size_t i = 0; i < offers.size(); ++i) {
          const StoredPcb& o = offers[i];
          std::vector<StoredPcb>& bucket = reference[o.pcb->origin()];
          if (bucket.size() == limit &&
              std::any_of(bucket.begin(), bucket.end(), [&](const StoredPcb& e) {
                return e.path_key == far.path_key;
              })) {
            ++far_path_picks;
          }
          const auto expected = reference_insert(bucket, limit, o);
          const auto outcome = store.insert(o.pcb, o.links, o.received_at);
          const std::string where = "AS " + std::to_string(as) + ", limit " +
                                    std::to_string(limit) + ", order " +
                                    std::to_string(order) + ", offer " +
                                    std::to_string(i);
          ASSERT_EQ(outcome, expected) << where;
          ASSERT_EQ(path_keys(store.for_origin(o.pcb->origin())),
                    path_keys(bucket))
              << where;
          ++outcomes[static_cast<std::size_t>(outcome)];
        }
      }
    }
  }
  // Buckets filled and evicted, and the far path was in a full bucket
  // when a victim was picked.
  EXPECT_GT(outcomes[static_cast<std::size_t>(BeaconStore::InsertOutcome::kReplaced)], 0u);
  EXPECT_GT(outcomes[static_cast<std::size_t>(BeaconStore::InsertOutcome::kRejected)], 0u);
  EXPECT_GT(far_path_picks, 0u);
}

}  // namespace
}  // namespace scion::ctrl
