#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/algorithms.hpp"
#include "core/beaconing_sim.hpp"
#include "diversity_run.hpp"
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

// --- Lockstep against a reference diversity state ---------------------------------

/// Reference Link History Table: hash-map counters and a std::log per link.
class ReferenceHistory {
 public:
  void add_path(std::span<const topo::LinkIndex> links) {
    for (topo::LinkIndex l : links) ++counters_[l];
  }
  void remove_path(std::span<const topo::LinkIndex> links) {
    for (topo::LinkIndex l : links) {
      const auto it = counters_.find(l);
      if (it == counters_.end()) continue;
      if (--it->second <= 0) counters_.erase(it);
    }
  }
  int counter(topo::LinkIndex link) const {
    const auto it = counters_.find(link);
    return it == counters_.end() ? 0 : it->second;
  }
  double geometric_mean(std::span<const topo::LinkIndex> links) const {
    if (links.empty()) return 0.0;
    double log_sum = 0.0;
    for (topo::LinkIndex l : links) {
      const int c = counter(l);
      if (c == 0) return 0.0;
      log_sum += std::log(static_cast<double>(c));
    }
    return std::exp(log_sum / static_cast<double>(links.size()));
  }
  const std::unordered_map<topo::LinkIndex, int>& counters() const {
    return counters_;
  }

 private:
  std::unordered_map<topo::LinkIndex, int> counters_;
};

double reference_diversity(const ReferenceHistory& history,
                           std::span<const topo::LinkIndex> links,
                           const DiversityParams& params) {
  const double gm = history.geometric_mean(links);
  return 1.0 - std::min(1.0, gm / params.max_geometric_mean);
}

/// Reference DiversityState: every pass rescans the whole bucket and builds
/// each candidate's link vector; expire() sweeps every sent record.
class ReferenceDiversityState {
 public:
  ReferenceDiversityState(DiversityParams params, LinkCanonicalizer canonicalizer)
      : params_{params}, canonicalizer_{std::move(canonicalizer)} {}

  void expire(TimePoint now) {
    for (auto it = sent_.begin(); it != sent_.end();) {
      if (it->second.instance_expiry <= now) {
        if (params_.decrement_on_expiry) {
          history(it->second.origin, it->second.neighbor)
              .remove_path(it->second.links);
        }
        it = sent_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::vector<Candidate> select_and_commit(
      std::span<const StoredPcb> bucket, IsdAsId origin, IsdAsId neighbor_as,
      std::span<const topo::LinkIndex> egress_links, std::size_t limit,
      TimePoint now) {
    std::vector<Candidate> selected;
    if (egress_links.empty() || bucket.empty()) return selected;
    ReferenceHistory& table = history(origin, neighbor_as);
    std::vector<topo::LinkIndex> candidate_links;
    std::vector<SentKey> chosen_this_call;
    while (selected.size() < limit) {
      const StoredPcb* best = nullptr;
      topo::LinkIndex best_egress = topo::kInvalidLinkIndex;
      double best_score = 0.0;
      for (const StoredPcb& s : bucket) {
        if (s.pcb->expired(now)) continue;
        if (s.stale()) continue;
        if (s.pcb->contains_as(neighbor_as)) continue;
        for (topo::LinkIndex egress : egress_links) {
          const SentKey key{s.path_key, egress};
          if (std::find(chosen_this_call.begin(), chosen_this_call.end(),
                        key) != chosen_this_call.end()) {
            continue;
          }
          ++evaluations_;
          double score = 0.0;
          const auto sent_it = sent_.find(key);
          if (sent_it != sent_.end() && sent_it->second.instance_expiry > now) {
            score = score_previously_sent(
                sent_it->second.diversity, sent_it->second.instance_expiry - now,
                s.pcb->remaining_lifetime(now), params_);
          } else {
            candidate_links.assign(s.links.begin(), s.links.end());
            candidate_links.push_back(egress);
            canonicalize(candidate_links);
            const double d = reference_diversity(table, candidate_links, params_);
            score = score_fresh(d, s.pcb->age(now), s.pcb->lifetime(), params_);
            score *= latency_factor(s.pcb->total_latency_us(), params_);
          }
          if (score <= params_.score_threshold) {
            ++suppressed_;
            continue;
          }
          bool better = score > best_score;
          if (!better && score == best_score && best != nullptr) {
            if (s.pcb->expiry() != best->pcb->expiry()) {
              better = s.pcb->expiry() > best->pcb->expiry();
            } else if (s.pcb->hops() != best->pcb->hops()) {
              better = s.pcb->hops() < best->pcb->hops();
            } else {
              better = s.path_key < best->path_key;
            }
          }
          if (better) {
            best = &s;
            best_egress = egress;
            best_score = score;
          }
        }
      }
      if (best == nullptr) break;
      const SentKey key{best->path_key, best_egress};
      candidate_links.assign(best->links.begin(), best->links.end());
      candidate_links.push_back(best_egress);
      commit_send(key, origin, neighbor_as, candidate_links,
                  best->pcb->timestamp(), best->pcb->expiry(), now);
      chosen_this_call.push_back(key);
      selected.push_back(Candidate{best, best_egress});
    }
    return selected;
  }

  void commit_send(const SentKey& key, IsdAsId origin, IsdAsId neighbor_as,
                   std::span<const topo::LinkIndex> links,
                   TimePoint instance_timestamp, TimePoint instance_expiry,
                   TimePoint now) {
    ReferenceHistory& table = history(origin, neighbor_as);
    std::vector<topo::LinkIndex> canonical(links.begin(), links.end());
    canonicalize(canonical);
    const auto sent_it = sent_.find(key);
    if (sent_it != sent_.end() && sent_it->second.instance_expiry > now) {
      sent_it->second.instance_timestamp = instance_timestamp;
      sent_it->second.instance_expiry = instance_expiry;
      return;
    }
    table.add_path(canonical);
    SentRecord record;
    record.origin = origin;
    record.neighbor = neighbor_as;
    record.diversity = reference_diversity(table, canonical, params_);
    record.instance_timestamp = instance_timestamp;
    record.instance_expiry = instance_expiry;
    record.links = canonical;
    sent_[key] = std::move(record);
  }

  ReferenceHistory& history(IsdAsId origin, IsdAsId neighbor_as) {
    return history_[{origin, neighbor_as}];
  }
  const std::map<std::pair<IsdAsId, IsdAsId>, ReferenceHistory>& histories()
      const {
    return history_;
  }
  const SentPcbsList& sent() const { return sent_; }
  std::uint64_t evaluations() const { return evaluations_; }
  std::uint64_t suppressed() const { return suppressed_; }

 private:
  void canonicalize(std::vector<topo::LinkIndex>& links) const {
    if (!canonicalizer_) return;
    for (topo::LinkIndex& l : links) l = canonicalizer_(l);
  }

  DiversityParams params_;
  LinkCanonicalizer canonicalizer_;
  std::map<std::pair<IsdAsId, IsdAsId>, ReferenceHistory> history_;
  SentPcbsList sent_;
  std::uint64_t evaluations_{0};
  std::uint64_t suppressed_{0};
};

void expect_same_record(const SentRecord& want, const SentRecord& got,
                        const std::string& where) {
  EXPECT_EQ(got.origin, want.origin) << where;
  EXPECT_EQ(got.neighbor, want.neighbor) << where;
  // Bit-equal, not within a few ulps: the scores feed strict comparisons.
  EXPECT_EQ(got.diversity, want.diversity) << where;
  EXPECT_EQ(got.instance_timestamp, want.instance_timestamp) << where;
  EXPECT_EQ(got.instance_expiry, want.instance_expiry) << where;
  EXPECT_EQ(got.links, want.links) << where;
}

void expect_same_records(const ReferenceDiversityState& want,
                         const DiversityState& got, const std::string& where) {
  ASSERT_EQ(got.sent().size(), want.sent().size()) << where;
  for (const auto& [key, record] : want.sent()) {
    const auto it = got.sent().find(key);
    ASSERT_NE(it, got.sent().end()) << where;
    expect_same_record(record, it->second, where);
  }
}

void expect_same_counters(const ReferenceHistory& want,
                          const LinkHistoryTable& got, const std::string& where) {
  ASSERT_EQ(got.distinct_links(), want.counters().size()) << where;
  for (const auto& [link, count] : want.counters()) {
    ASSERT_EQ(got.counter(link), count) << where << ", link " << link;
  }
}

void expect_same_counters(ReferenceDiversityState& want, DiversityState& got,
                          const std::string& where) {
  for (const auto& [pair, table] : want.histories()) {
    expect_same_counters(table, got.history(pair.first, pair.second), where);
  }
}

struct LockstepCorner {
  std::string name;
  DiversityParams params;
  bool as_pair_disjoint{false};
  std::size_t limit{5};
};

std::vector<LockstepCorner> lockstep_corners() {
  std::vector<LockstepCorner> corners;
  const auto add = [&](std::string name, auto&& edit) {
    for (const std::size_t limit : {std::size_t{1}, std::size_t{5}}) {
      LockstepCorner c{name + ", limit " + std::to_string(limit), {}, false,
                       limit};
      edit(c);
      corners.push_back(std::move(c));
    }
  };
  add("default", [](LockstepCorner&) {});
  add("alpha=0", [](LockstepCorner& c) { c.params.alpha = 0.0; });
  add("beta=gamma=0", [](LockstepCorner& c) {
    c.params.beta = 0.0;
    c.params.gamma = 0.0;
  });
  add("decrement_on_expiry",
      [](LockstepCorner& c) { c.params.decrement_on_expiry = true; });
  add("latency_weight=1",
      [](LockstepCorner& c) { c.params.latency_weight = 1.0; });
  add("as-pair canonicalizer",
      [](LockstepCorner& c) { c.as_pair_disjoint = true; });
  add("score_threshold=0",
      [](LockstepCorner& c) { c.params.score_threshold = 0.0; });
  return corners;
}

// DiversityState (filtered once per call, one log sum per path per pass,
// dense counters, a log table) against the reference, call by call.
// The buckets are every server's stored PCBs at the end of a fixed-seed
// diversity run; the intervals span more than a PCB lifetime, so sent
// records and the stored PCBs themselves expire along the way.
TEST(DiversityLockstep, MatchesReferenceOnEveryBucketOfARun) {
  const topo::Topology world = diversity_run_world();
  const BeaconingSimConfig config = diversity_run_config();
  BeaconingSim sim{world, config};
  sim.run();
  const TimePoint end = sim.simulator().now();
  const Duration interval = config.server.interval;
  const Duration span = config.server.pcb_lifetime + 2 * interval;

  std::uint64_t selections = 0;
  std::uint64_t suppressed = 0;
  for (const LockstepCorner& corner : lockstep_corners()) {
    SCOPED_TRACE(corner.name);
    const LinkCanonicalizer canonicalizer =
        corner.as_pair_disjoint ? as_pair_canonicalizer(world)
                                : LinkCanonicalizer{};
    for (topo::AsIndex as = 0; as < world.as_count(); ++as) {
      const BeaconStore& store = sim.server(as).store();
      // The server's neighbor groups: parallel links per neighbor AS.
      std::vector<std::pair<IsdAsId, std::vector<topo::LinkIndex>>> groups;
      for (const topo::LinkIndex l : world.links_of(as)) {
        const IsdAsId neighbor = world.as_id(world.neighbor(l, as));
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const auto& g) { return g.first == neighbor; });
        if (it == groups.end()) {
          groups.push_back({neighbor, {}});
          it = groups.end() - 1;
        }
        it->second.push_back(l);
      }
      ReferenceDiversityState want{corner.params, canonicalizer};
      DiversityState got{corner.params, canonicalizer};
      for (TimePoint now = end; now <= end + span; now = now + interval) {
        const std::string at =
            "AS " + std::to_string(as) + " at +" +
            std::to_string((now - end).ns() / Duration::minutes(1).ns()) +
            " min";
        want.expire(now);
        got.expire(now);
        expect_same_records(want, got, at + ", after expire");
        expect_same_counters(want, got, at + ", after expire");
        for (const auto& [neighbor, links] : groups) {
          for (const IsdAsId origin : store.origins()) {
            if (origin == neighbor) continue;
            const std::vector<StoredPcb>& bucket = store.for_origin(origin);
            const std::vector<Candidate> w = want.select_and_commit(
                bucket, origin, neighbor, links, corner.limit, now);
            const std::vector<Candidate> g = got.select_and_commit(
                bucket, origin, neighbor, links, corner.limit, now);
            const std::string where = at + ", origin " + origin.to_string() +
                                      " to " + neighbor.to_string();
            ASSERT_EQ(g.size(), w.size()) << where;
            for (std::size_t k = 0; k < w.size(); ++k) {
              ASSERT_EQ(g[k].stored->path_key, w[k].stored->path_key) << where;
              ASSERT_EQ(g[k].egress, w[k].egress) << where;
              const auto it = want.sent().find(
                  SentKey{w[k].stored->path_key, w[k].egress});
              ASSERT_NE(it, want.sent().end()) << where;
              const auto got_it = got.sent().find(it->first);
              ASSERT_NE(got_it, got.sent().end()) << where;
              expect_same_record(it->second, got_it->second, where);
            }
            // Only the selected records can have changed.
            ASSERT_EQ(got.sent().size(), want.sent().size()) << where;
            expect_same_counters(want.history(origin, neighbor),
                                 got.history(origin, neighbor), where);
            ASSERT_EQ(got.evaluations(), want.evaluations()) << where;
            ASSERT_EQ(got.suppressed(), want.suppressed()) << where;
            selections += w.size();
          }
        }
      }
      suppressed += want.suppressed();
    }
  }
  // Candidates were both selected and suppressed.
  EXPECT_GT(selections, 0u);
  EXPECT_GT(suppressed, 0u);
}

}  // namespace
}  // namespace scion::ctrl
