#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>

#include "core/scoring.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace scion::ctrl {
namespace {

using util::Duration;

const DiversityParams kParams{};  // defaults

std::vector<topo::LinkIndex> links(std::initializer_list<topo::LinkIndex> l) {
  return l;
}

TEST(LinkHistoryTable, CountersTrackPaths) {
  LinkHistoryTable table;
  table.add_path(links({1, 2, 3}));
  table.add_path(links({2, 3, 4}));
  EXPECT_EQ(table.counter(1), 1);
  EXPECT_EQ(table.counter(2), 2);
  EXPECT_EQ(table.counter(9), 0);
  EXPECT_EQ(table.distinct_links(), 4u);
}

TEST(LinkHistoryTable, RemoveDecrementsAndClamps) {
  LinkHistoryTable table;
  table.add_path(links({1, 2}));
  table.add_path(links({2}));
  table.remove_path(links({1, 2}));
  EXPECT_EQ(table.counter(1), 0);
  EXPECT_EQ(table.counter(2), 1);
  table.remove_path(links({1}));  // already zero: no underflow
  EXPECT_EQ(table.counter(1), 0);
  EXPECT_EQ(table.distinct_links(), 1u);
}

TEST(LinkHistoryTable, GeometricMeanZeroWithAnyNewLink) {
  LinkHistoryTable table;
  table.add_path(links({1, 2}));
  EXPECT_DOUBLE_EQ(table.geometric_mean(links({1, 2, 3})), 0.0)
      << "a path with one never-used link counts as fully fresh";
  EXPECT_DOUBLE_EQ(table.geometric_mean(links({1, 2})), 1.0);
}

TEST(LinkHistoryTable, GeometricMeanOfMixedCounters) {
  LinkHistoryTable table;
  for (int i = 0; i < 4; ++i) table.add_path(links({1}));
  table.add_path(links({2}));
  // counters: 1 -> 4, 2 -> 1; gm = sqrt(4 * 1) = 2
  EXPECT_DOUBLE_EQ(table.geometric_mean(links({1, 2})), 2.0);
}

// distinct_links() and every counter against a reference map through a
// seeded sequence of adds and removes, with removes that clamp at zero and
// links that are re-added after dropping to zero.
TEST(LinkHistoryTable, DistinctLinksTrackAddRemoveSequences) {
  LinkHistoryTable table;
  std::map<topo::LinkIndex, int> reference;
  std::size_t clamped = 0;
  std::size_t readded = 0;
  util::Rng rng{17};
  for (int step = 0; step < 2000; ++step) {
    std::vector<topo::LinkIndex> path;
    const std::size_t hops = 1 + rng.index(4);
    for (std::size_t h = 0; h < hops; ++h) {
      path.push_back(static_cast<topo::LinkIndex>(rng.index(24)));
    }
    if (rng.index(2) == 0) {
      table.add_path(path);
      for (topo::LinkIndex l : path) {
        const auto it = reference.find(l);
        readded += it != reference.end() && it->second == 0;
        ++reference[l];
      }
    } else {
      table.remove_path(path);
      for (topo::LinkIndex l : path) {
        if (reference[l] > 0) {
          --reference[l];
        } else {
          ++clamped;
        }
      }
    }
    std::size_t distinct = 0;
    for (const auto& [link, count] : reference) {
      ASSERT_EQ(table.counter(link), count) << "step " << step;
      distinct += count > 0;
    }
    ASSERT_EQ(table.distinct_links(), distinct) << "step " << step;
  }
  EXPECT_GT(clamped, 0u);
  EXPECT_GT(readded, 0u);
}

TEST(LinkHistoryTable, UntouchedLinkPastTheEndCountsZero) {
  LinkHistoryTable table;
  EXPECT_EQ(table.counter(0), 0);
  table.add_path(links({3}));
  EXPECT_EQ(table.counter(4), 0);
  EXPECT_EQ(table.counter(1'000'000), 0);
  EXPECT_EQ(table.counter(topo::kInvalidLinkIndex), 0);
  EXPECT_EQ(table.geometric_mean(links({3, 4000})), 0.0);
}

#if SCION_CHECK_ENABLED
TEST(LinkHistoryTableDeathTest, InvalidLinkIndexFailsLoudly) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  LinkHistoryTable table;
  EXPECT_DEATH(table.add_path(links({1, topo::kInvalidLinkIndex})),
               "valid link index");
}
#endif

TEST(LinkHistoryTable, LogTableEqualsStdLogAcrossItsBoundary) {
  for (int c = 1; c <= kLogCountTableSize + 16; ++c) {
    ASSERT_EQ(log_count(c), std::log(static_cast<double>(c))) << c;
  }
  for (const int c : {kLogCountTableSize - 1, kLogCountTableSize,
                      kLogCountTableSize + 1, 1 << 20, 1 << 30}) {
    EXPECT_EQ(log_count(c), std::log(static_cast<double>(c))) << c;
  }
}

// Bit-equal to a std::log / std::exp loop in link order, with counters on
// both sides of the log table's boundary.
TEST(LinkHistoryTable, GeometricMeanBitEqualsStdLogLoop) {
  LinkHistoryTable table;
  const std::array<int, 8> counts{1, 2, 3, 7, kLogCountTableSize - 1,
                                  kLogCountTableSize, kLogCountTableSize + 1,
                                  3000};
  for (std::size_t l = 0; l < counts.size(); ++l) {
    for (int i = 0; i < counts[l]; ++i) {
      table.add_path(links({static_cast<topo::LinkIndex>(l)}));
    }
  }
  util::Rng rng{5};
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<topo::LinkIndex> path;
    const std::size_t hops = 1 + rng.index(6);
    for (std::size_t h = 0; h < hops; ++h) {
      path.push_back(static_cast<topo::LinkIndex>(rng.index(counts.size())));
    }
    double log_sum = 0.0;
    for (topo::LinkIndex l : path) {
      log_sum += std::log(static_cast<double>(counts[l]));
    }
    const double expected =
        std::exp(log_sum / static_cast<double>(path.size()));
    ASSERT_EQ(table.geometric_mean(path), expected) << "trial " << trial;
  }
}

TEST(DiversityScore, FullyFreshPathScoresOne) {
  LinkHistoryTable table;
  EXPECT_DOUBLE_EQ(diversity_score(table, links({5, 6}), kParams), 1.0);
}

TEST(DiversityScore, SaturatesAtZero) {
  LinkHistoryTable table;
  for (int i = 0; i < 10; ++i) table.add_path(links({1}));  // counter 10 > gm_max 5
  EXPECT_DOUBLE_EQ(diversity_score(table, links({1}), kParams), 0.0);
}

TEST(DiversityScore, DecreasesWithReuse) {
  LinkHistoryTable table;
  table.add_path(links({1, 2}));
  const double once = diversity_score(table, links({1, 2}), kParams);
  table.add_path(links({1, 2}));
  const double twice = diversity_score(table, links({1, 2}), kParams);
  EXPECT_GT(once, twice);
  EXPECT_GT(once, 0.0);
  EXPECT_LT(once, 1.0);
}

// --- Eq. 2 (not previously sent) ----------------------------------------------

TEST(ScoreFresh, BrandNewPcbScoresDiversityIndependent) {
  // age 0 => exponent 0 => score 1 for any positive diversity.
  EXPECT_DOUBLE_EQ(score_fresh(0.3, Duration::zero(), Duration::hours(6), kParams), 1.0);
  EXPECT_DOUBLE_EQ(score_fresh(1.0, Duration::zero(), Duration::hours(6), kParams), 1.0);
}

TEST(ScoreFresh, ZeroDiversityNeverSends) {
  EXPECT_DOUBLE_EQ(score_fresh(0.0, Duration::zero(), Duration::hours(6), kParams), 0.0);
  EXPECT_DOUBLE_EQ(
      score_fresh(0.0, Duration::hours(1), Duration::hours(6), kParams), 0.0);
}

TEST(ScoreFresh, DecaysWithAge) {
  const Duration lifetime = Duration::hours(6);
  const double young =
      score_fresh(0.5, Duration::minutes(10), lifetime, kParams);
  const double old = score_fresh(0.5, Duration::hours(3), lifetime, kParams);
  EXPECT_GT(young, old);
  EXPECT_GT(old, 0.0);
}

TEST(ScoreFresh, FullyDisjointImmuneToAge) {
  const Duration lifetime = Duration::hours(6);
  EXPECT_DOUBLE_EQ(score_fresh(1.0, Duration::hours(5), lifetime, kParams), 1.0);
}

TEST(ScoreFresh, HigherDiversityScoresHigher) {
  const Duration lifetime = Duration::hours(6);
  const Duration age = Duration::hours(1);
  EXPECT_GT(score_fresh(0.9, age, lifetime, kParams),
            score_fresh(0.4, age, lifetime, kParams));
}

// --- Eq. 3 (previously sent) -----------------------------------------------------

TEST(ScorePreviouslySent, FreshlySentIsSuppressed) {
  // Both instances fresh: ratio ~1 -> exponent beta^gamma = 9 with defaults;
  // even a diversity of 0.8 drops well below the 0.5 threshold.
  const double score = score_previously_sent(0.8, Duration::hours(6),
                                             Duration::hours(6), kParams);
  EXPECT_LT(score, kParams.score_threshold);
}

TEST(ScorePreviouslySent, RecoversAsSentInstanceExpires) {
  const Duration current = Duration::hours(6);
  const double near_expiry =
      score_previously_sent(0.8, Duration::minutes(10), current, kParams);
  const double half_life =
      score_previously_sent(0.8, Duration::hours(3), current, kParams);
  EXPECT_GT(near_expiry, half_life);
  EXPECT_GT(near_expiry, kParams.score_threshold)
      << "connectivity preservation: resend before the old instance dies";
}

TEST(ScorePreviouslySent, MonotoneInRemainingRatio) {
  const Duration current = Duration::hours(6);
  double prev = 2.0;
  for (int h = 0; h <= 6; ++h) {
    const double s =
        score_previously_sent(0.8, Duration::hours(h), current, kParams);
    EXPECT_LT(s, prev);
    prev = s;
  }
}

TEST(ScorePreviouslySent, ZeroStoredDiversityNeverResends) {
  EXPECT_DOUBLE_EQ(score_previously_sent(0.0, Duration::zero(),
                                         Duration::hours(6), kParams),
                   0.0);
}

TEST(ScorePreviouslySent, OlderCurrentInstanceSuppressedHarder) {
  // If the candidate instance expires sooner than what we already sent,
  // the ratio exceeds 1 and the score collapses.
  const double score = score_previously_sent(0.8, Duration::hours(6),
                                             Duration::hours(1), kParams);
  EXPECT_LT(score, 0.01);
}

// --- Objective interplay (the three goals of Section 4.2) -----------------------

TEST(Scoring, NewPathBeatsFreshlySentPath) {
  // "Discover new paths": a not-previously-sent fully disjoint path at any
  // age scores 1, above any freshly re-sent path's score.
  const double new_path =
      score_fresh(1.0, Duration::hours(2), Duration::hours(6), kParams);
  const double sent_path = score_previously_sent(
      0.8, Duration::hours(5), Duration::hours(6), kParams);
  EXPECT_GT(new_path, sent_path);
}

TEST(Scoring, ExpiringSentPathBeatsRedundantNewPath) {
  // "Preserve connectivity": about-to-expire sent path recovers to ~1,
  // beating a heavily overlapping fresh path.
  const double expiring = score_previously_sent(
      0.8, Duration::minutes(5), Duration::hours(6), kParams);
  const double redundant =
      score_fresh(0.2, Duration::hours(1), Duration::hours(6), kParams);
  EXPECT_GT(expiring, redundant);
}

// Parameterized sweep: score_fresh stays within [0, 1] and is monotone in
// diversity across the parameter grid used by the grid search.
class ScoreGrid : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(ScoreGrid, ScoresBoundedAndMonotone) {
  const auto [alpha, beta, gamma] = GetParam();
  DiversityParams p;
  p.alpha = alpha;
  p.beta = beta;
  p.gamma = gamma;
  const Duration lifetime = Duration::hours(6);
  double prev_fresh = -1.0;
  for (double d = 0.0; d <= 1.0; d += 0.25) {
    const double s = score_fresh(d, Duration::hours(1), lifetime, p);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
    EXPECT_GE(s, prev_fresh) << "monotone in diversity";
    prev_fresh = s;
    const double s2 =
        score_previously_sent(d, Duration::hours(3), lifetime, p);
    EXPECT_GE(s2, 0.0);
    EXPECT_LE(s2, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParamGrid, ScoreGrid,
    ::testing::Combine(::testing::Values(0.5, 2.0, 8.0),
                       ::testing::Values(1.0, 3.0, 6.0),
                       ::testing::Values(1.0, 2.0, 4.0)));

}  // namespace
}  // namespace scion::ctrl
