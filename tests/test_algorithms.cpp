#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/algorithms.hpp"
#include "core/beaconing_sim.hpp"
#include "topology/generator.hpp"

namespace scion::ctrl {
namespace {

using util::Duration;
using util::TimePoint;

const Duration kLifetime = Duration::hours(6);
const IsdAsId kOrigin = IsdAsId::make(1, 1);
const IsdAsId kNeighbor = IsdAsId::make(1, 99);

StoredPcb make_stored(std::vector<topo::LinkIndex> links, TimePoint timestamp,
                      IsdAsId origin = kOrigin) {
  Pcb pcb = Pcb::originate_unsigned(
      origin, static_cast<topo::IfId>(links.front() + 1), timestamp, kLifetime);
  for (std::size_t i = 1; i < links.size(); ++i) {
    pcb = pcb.extend_unsigned(IsdAsId::make(9, 100 + links[i - 1]),
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

StoredPcb make_stored_through(IsdAsId via, std::vector<topo::LinkIndex> links,
                              TimePoint timestamp) {
  Pcb pcb = Pcb::originate_unsigned(
      kOrigin, static_cast<topo::IfId>(links.front() + 1), timestamp, kLifetime);
  for (std::size_t i = 1; i < links.size(); ++i) {
    pcb = pcb.extend_unsigned(via, static_cast<topo::IfId>(links[i - 1] + 1),
                              static_cast<topo::IfId>(links[i] + 1), {});
  }
  StoredPcb stored;
  stored.pcb = std::make_shared<const Pcb>(std::move(pcb));
  stored.links = std::move(links);
  stored.received_at = timestamp;
  stored.path_key = stored.pcb->path_key();
  return stored;
}

// --- Baseline -------------------------------------------------------------------

TEST(BaselineSelect, ShortestFirstUpToLimit) {
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2, 3}, TimePoint::origin()));
  bucket.push_back(make_stored({4}, TimePoint::origin()));
  bucket.push_back(make_stored({5, 6}, TimePoint::origin()));
  const auto selected =
      baseline_select(bucket, kNeighbor, 77, 2, TimePoint::origin());
  ASSERT_EQ(selected.size(), 2u);
  EXPECT_EQ(selected[0].stored->links.size(), 1u);
  EXPECT_EQ(selected[1].stored->links.size(), 2u);
  EXPECT_EQ(selected[0].egress, 77u);
}

TEST(BaselineSelect, FresherInstanceBreaksTies) {
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1}, TimePoint::origin()));
  bucket.push_back(
      make_stored({2}, TimePoint::origin() + Duration::minutes(10)));
  const auto selected = baseline_select(bucket, kNeighbor, 7, 1,
                                        TimePoint::origin() + Duration::minutes(10));
  ASSERT_EQ(selected.size(), 1u);
  EXPECT_EQ(selected[0].stored->links, std::vector<topo::LinkIndex>{2});
}

TEST(BaselineSelect, SkipsExpiredAndLooping) {
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1}, TimePoint::origin()));
  bucket.push_back(make_stored_through(kNeighbor, {2, 3}, TimePoint::origin()));
  const TimePoint later = TimePoint::origin() + kLifetime + Duration::seconds(1);
  // First PCB expired by `later`; second contains the neighbor.
  bucket[0] = make_stored({1}, TimePoint::origin());
  const auto selected = baseline_select(bucket, kNeighbor, 7, 5, later);
  EXPECT_TRUE(selected.empty());
}

TEST(BaselineSelect, ResendsEveryCall) {
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1}, TimePoint::origin()));
  const auto first = baseline_select(bucket, kNeighbor, 7, 5, TimePoint::origin());
  const auto second = baseline_select(bucket, kNeighbor, 7, 5, TimePoint::origin());
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(second.size(), 1u) << "baseline has no memory of prior sends";
}

/// Reference for baseline_select: filter, full sort, truncate.
std::vector<const StoredPcb*> reference_baseline_select(
    std::span<const StoredPcb> bucket, IsdAsId neighbor_as, std::size_t limit,
    TimePoint now) {
  std::vector<const StoredPcb*> eligible;
  for (const StoredPcb& s : bucket) {
    if (s.pcb->expired(now) || s.stale() || s.pcb->contains_as(neighbor_as)) {
      continue;
    }
    eligible.push_back(&s);
  }
  std::sort(eligible.begin(), eligible.end(),
            [](const StoredPcb* x, const StoredPcb* y) {
              if (x->pcb->hops() != y->pcb->hops())
                return x->pcb->hops() < y->pcb->hops();
              if (x->pcb->timestamp() != y->pcb->timestamp())
                return x->pcb->timestamp() > y->pcb->timestamp();
              return x->path_key < y->path_key;
            });
  if (eligible.size() > limit) eligible.resize(limit);
  return eligible;
}

TEST(BaselineSelect, TopKEqualsFullSortOnEveryBucketOfARun) {
  topo::ScionLabConfig world_config;
  world_config.n_cores = 10;
  world_config.extra_edge_fraction = 0.3;
  world_config.seed = 5;
  const topo::Topology world = topo::generate_scionlab(world_config);
  BeaconingSimConfig config;
  config.server.compute_crypto = false;
  config.sim_duration = Duration::hours(2);
  config.seed = 42;
  BeaconingSim sim{world, config};
  sim.run();
  const TimePoint end = sim.simulator().now();

  std::size_t compared = 0;
  for (topo::AsIndex as = 0; as < world.as_count(); ++as) {
    const BeaconStore& store = sim.server(as).store();
    for (const IsdAsId origin : store.origins()) {
      const std::vector<StoredPcb>& bucket = store.for_origin(origin);
      for (const topo::LinkIndex egress : world.links_of(as)) {
        const IsdAsId neighbor = world.as_id(world.neighbor(egress, as));
        for (const std::size_t limit : {std::size_t{1}, std::size_t{5}, bucket.size() + 1}) {
          // At the end of the run, and once part of the bucket has expired.
          for (const TimePoint now : {end, end + Duration::hours(5)}) {
            const std::vector<Candidate> selected =
                baseline_select(bucket, neighbor, egress, limit, now);
            const std::vector<const StoredPcb*> expected =
                reference_baseline_select(bucket, neighbor, limit, now);
            ASSERT_EQ(selected.size(), expected.size());
            for (std::size_t k = 0; k < selected.size(); ++k) {
              EXPECT_EQ(selected[k].stored, expected[k]);
              EXPECT_EQ(selected[k].egress, egress);
            }
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);
}

// --- Diversity (Algorithm 1) ------------------------------------------------------

TEST(DiversitySelect, RespectsDisseminationLimit) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  for (topo::LinkIndex l = 0; l < 10; ++l) {
    bucket.push_back(make_stored({l}, TimePoint::origin()));
  }
  const std::vector<topo::LinkIndex> egress{100, 101};
  const auto selected = state.select_and_commit(bucket, kOrigin, kNeighbor,
                                                egress, 5, TimePoint::origin());
  EXPECT_EQ(selected.size(), 5u);
}

TEST(DiversitySelect, PrefersDisjointPaths) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  bucket.push_back(make_stored({1, 3}, TimePoint::origin()));
  bucket.push_back(make_stored({4, 5}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  const auto selected = state.select_and_commit(bucket, kOrigin, kNeighbor,
                                                egress, 2, TimePoint::origin());
  ASSERT_EQ(selected.size(), 2u);
  // Whatever is picked first, the second pick must not overlap it on
  // non-egress links (both fully disjoint options exist).
  const auto& first = selected[0].stored->links;
  const auto& second = selected[1].stored->links;
  for (topo::LinkIndex l : first) {
    EXPECT_EQ(std::count(second.begin(), second.end(), l), 0)
        << "greedy pick must prefer the disjoint alternative";
  }
}

TEST(DiversitySelect, NoDuplicateSelectionWithinInterval) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100, 101};
  const auto selected = state.select_and_commit(bucket, kOrigin, kNeighbor,
                                                egress, 5, TimePoint::origin());
  // One stored path x two egress links = at most 2 distinct combinations.
  EXPECT_LE(selected.size(), 2u);
  std::set<std::pair<std::uint64_t, topo::LinkIndex>> seen;
  for (const Candidate& c : selected) {
    EXPECT_TRUE(seen.insert({c.stored->path_key, c.egress}).second);
  }
}

TEST(DiversitySelect, SuppressesResendNextInterval) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  const auto first = state.select_and_commit(bucket, kOrigin, kNeighbor,
                                             egress, 5, TimePoint::origin());
  EXPECT_EQ(first.size(), 1u);

  // Next interval: a fresh instance of the same path arrives.
  const TimePoint next = TimePoint::origin() + Duration::minutes(10);
  bucket[0] = make_stored({1, 2}, next);
  const auto second =
      state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5, next);
  EXPECT_TRUE(second.empty()) << "freshly sent path must be suppressed";
  EXPECT_GT(state.suppressed(), 0u);
}

TEST(DiversitySelect, ResendsWhenSentInstanceNearsExpiry) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5,
                          TimePoint::origin());

  // 5.5 hours later the sent instance is close to its 6-hour expiry; a
  // fresh instance of the same path must be re-disseminated.
  const TimePoint later = TimePoint::origin() + Duration::minutes(330);
  bucket[0] = make_stored({1, 2}, later);
  const auto again =
      state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5, later);
  EXPECT_EQ(again.size(), 1u)
      << "connectivity preservation: resend before expiry";
}

TEST(DiversitySelect, ExpiredSentRecordsRollBackCountersWhenConfigured) {
  DiversityParams params;
  params.decrement_on_expiry = true;  // the ablation variant
  DiversityState state{params};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5,
                          TimePoint::origin());
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 1);

  state.expire(TimePoint::origin() + kLifetime + Duration::seconds(1));
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 0);
  EXPECT_TRUE(state.sent().empty());
}

TEST(DiversitySelect, CumulativeCountersSurviveExpiryByDefault) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5,
                          TimePoint::origin());
  state.expire(TimePoint::origin() + kLifetime + Duration::seconds(1));
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 1)
      << "default Link History counters are cumulative";
  EXPECT_TRUE(state.sent().empty());
}

TEST(DiversitySelect, RefreshKeepsOriginalDiversityScore) {
  DiversityState state{DiversityParams{}};
  const SentKey key{99, 5};
  const std::vector<topo::LinkIndex> links{1, 5};
  state.commit_send(key, kOrigin, kNeighbor, links, TimePoint::origin(),
                    TimePoint::origin() + kLifetime, TimePoint::origin());
  const double original = state.sent().at(key).diversity;
  EXPECT_GT(original, 0.0);

  // Other sends crowd the same links; a later refresh of the original path
  // must keep its original score (only timers update).
  const SentKey other{42, 5};
  state.commit_send(other, kOrigin, kNeighbor, links, TimePoint::origin(),
                    TimePoint::origin() + kLifetime, TimePoint::origin());
  const TimePoint later = TimePoint::origin() + Duration::hours(4);
  state.commit_send(key, kOrigin, kNeighbor, links, later, later + kLifetime,
                    later);
  EXPECT_DOUBLE_EQ(state.sent().at(key).diversity, original);
  EXPECT_EQ(state.sent().at(key).instance_timestamp, later);
}

TEST(DiversitySelect, LoopPreventionSkipsNeighborPaths) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored_through(kNeighbor, {1, 2}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  const auto selected = state.select_and_commit(bucket, kOrigin, kNeighbor,
                                                egress, 5, TimePoint::origin());
  EXPECT_TRUE(selected.empty());
}

TEST(DiversitySelect, ThresholdStopsSelectionEarly) {
  DiversityParams params;
  params.max_geometric_mean = 1.0;  // any reuse saturates
  DiversityState state{params};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  bucket.push_back(make_stored({1, 3}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  const auto selected = state.select_and_commit(bucket, kOrigin, kNeighbor,
                                                egress, 5, TimePoint::origin());
  // After the first pick, link 1 and the egress link are saturated; the
  // second path shares link 1 but has fresh link 3 — its geometric mean is
  // 0, so it still scores 1. Then nothing is left above threshold.
  EXPECT_LE(selected.size(), 2u);
  EXPECT_GE(selected.size(), 1u);
}

TEST(DiversitySelect, PerNeighborHistoryIsolated) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1, 2}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5,
                          TimePoint::origin());
  const IsdAsId other = IsdAsId::make(3, 3);
  const std::vector<topo::LinkIndex> egress2{200};
  const auto selected = state.select_and_commit(bucket, kOrigin, other,
                                                egress2, 5, TimePoint::origin());
  EXPECT_EQ(selected.size(), 1u)
      << "sending to one neighbor must not suppress another";
}

TEST(DiversitySelect, CommitSendIdempotentWhileValid) {
  DiversityState state{DiversityParams{}};
  const SentKey key{1234, 7};
  const std::vector<topo::LinkIndex> links{1, 2, 7};
  state.commit_send(key, kOrigin, kNeighbor, links, TimePoint::origin(),
                    TimePoint::origin() + kLifetime, TimePoint::origin());
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 1);
  // Re-sending the same valid path updates timers but not counters.
  state.commit_send(key, kOrigin, kNeighbor, links,
                    TimePoint::origin() + Duration::minutes(10),
                    TimePoint::origin() + Duration::minutes(10) + kLifetime,
                    TimePoint::origin() + Duration::minutes(10));
  EXPECT_EQ(state.history(kOrigin, kNeighbor).counter(1), 1);
}

TEST(DiversitySelect, EvaluationCounterAdvances) {
  DiversityState state{DiversityParams{}};
  std::vector<StoredPcb> bucket;
  bucket.push_back(make_stored({1}, TimePoint::origin()));
  const std::vector<topo::LinkIndex> egress{100};
  state.select_and_commit(bucket, kOrigin, kNeighbor, egress, 5,
                          TimePoint::origin());
  EXPECT_GT(state.evaluations(), 0u);
}

}  // namespace
}  // namespace scion::ctrl
