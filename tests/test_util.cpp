#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace scion::util {
namespace {

// --- Duration / TimePoint ---------------------------------------------------

TEST(Duration, NamedConstructorsAgree) {
  EXPECT_EQ(Duration::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(Duration::milliseconds(1500), Duration::microseconds(1'500'000));
  EXPECT_EQ(Duration::minutes(10), Duration::seconds(600));
  EXPECT_EQ(Duration::hours(6), Duration::minutes(360));
  EXPECT_EQ(Duration::days(1), Duration::hours(24));
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::seconds(90);
  const Duration b = Duration::seconds(30);
  EXPECT_EQ(a + b, Duration::minutes(2));
  EXPECT_EQ(a - b, Duration::minutes(1));
  EXPECT_EQ(b * 3, a);
  EXPECT_EQ(a / 3, b);
  EXPECT_DOUBLE_EQ(a / b, 3.0);
  EXPECT_EQ(-b, Duration::seconds(-30));
}

TEST(Duration, Conversions) {
  EXPECT_DOUBLE_EQ(Duration::minutes(90).as_hours(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::milliseconds(250).as_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(Duration::seconds(90).as_minutes(), 1.5);
}

TEST(Duration, Ordering) {
  EXPECT_LT(Duration::seconds(1), Duration::seconds(2));
  EXPECT_GE(Duration::minutes(1), Duration::seconds(60));
  EXPECT_EQ(Duration::zero(), Duration::nanoseconds(0));
}

TEST(Duration, ToStringPicksUnits) {
  EXPECT_EQ(Duration::hours(6).to_string(), "6h");
  EXPECT_EQ(Duration::minutes(10).to_string(), "10m");
  EXPECT_EQ(Duration::seconds(2).to_string(), "2s");
  EXPECT_EQ(Duration::milliseconds(5).to_string(), "5ms");
  EXPECT_EQ(Duration::nanoseconds(-1'000'000).to_string(), "-1ms");
}

TEST(TimePoint, ArithmeticWithDurations) {
  const TimePoint t = TimePoint::origin() + Duration::seconds(10);
  EXPECT_EQ(t - TimePoint::origin(), Duration::seconds(10));
  EXPECT_EQ(t + Duration::seconds(5), TimePoint::from_ns(15'000'000'000));
  EXPECT_LT(TimePoint::origin(), t);
}

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng{7};
  std::map<std::int64_t, int> histogram;
  for (int i = 0; i < 2000; ++i) ++histogram[rng.uniform_int(0, 9)];
  EXPECT_EQ(histogram.size(), 10u);
  for (const auto& [value, count] : histogram) EXPECT_GT(count, 100);
}

TEST(Rng, UniformDoubleInHalfOpenInterval) {
  Rng rng{3};
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng{3};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{11};
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng{13};
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(Rng, ParetoAtLeastScale) {
  Rng rng{17};
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(1.5, 1.2), 1.5);
}

TEST(Rng, ZipfBoundsAndSkew) {
  Rng rng{19};
  std::map<std::uint64_t, int> histogram;
  const std::uint64_t n = 100;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.zipf(n, 1.1);
    ASSERT_GE(k, 1u);
    ASSERT_LE(k, n);
    ++histogram[k];
  }
  // Rank 1 must dominate rank 50 heavily.
  EXPECT_GT(histogram[1], 10 * std::max(histogram[50], 1));
}

TEST(Rng, ZipfDegeneratesToSingleton) {
  Rng rng{23};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.zipf(1, 1.0), 1u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{29};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a{31};
  Rng b{31};
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fa(), fb());
}

TEST(Rng, SubstreamIsPureFunctionOfSeedAndStream) {
  // Pure: no hidden state, so worker threads can derive their stream from
  // the task index alone and the result never depends on execution order.
  Rng a = Rng::substream(99, 4);
  Rng b = Rng::substream(99, 4);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SubstreamsAreMutuallyIndependent) {
  // Adjacent streams (the common task-index case) must not correlate.
  Rng a = Rng::substream(99, 0);
  Rng b = Rng::substream(99, 1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
  // Same stream index under different seeds differs too.
  Rng c = Rng::substream(1, 3);
  Rng d = Rng::substream(2, 3);
  same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c() == d()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntHasNoModuloBias) {
  // uniform_int uses rejection sampling (see rng.cpp): every residue class
  // below the rejection limit is represented exactly floor(2^64/range)
  // times, so the distribution is exactly uniform. Chi-square over a range
  // that does not divide 2^64: for 7 bins and 70000 draws, the 99.9%
  // critical value at 6 degrees of freedom is 22.46.
  Rng rng{123};
  constexpr int kBins = 7;
  constexpr int kDraws = 70000;
  std::array<int, kBins> counts{};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, kBins - 1))];
  }
  const double expected = static_cast<double>(kDraws) / kBins;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 22.46);
}

// --- Stats --------------------------------------------------------------------

TEST(OnlineStats, Moments) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyAndSingle) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(EmpiricalCdf, QuantilesInterpolate) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 5; ++i) cdf.add(i);  // 1..5
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.median(), 3.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 2.0);
}

TEST(EmpiricalCdf, FractionAtMost) {
  EmpiricalCdf cdf;
  cdf.add_all({1, 2, 2, 3, 10});
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(2.0), 0.6);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(100.0), 1.0);
}

TEST(EmpiricalCdf, CurveIsMonotone) {
  EmpiricalCdf cdf;
  Rng rng{5};
  for (int i = 0; i < 500; ++i) cdf.add(rng.uniform(0, 100));
  const auto curve = cdf.curve(16);
  ASSERT_FALSE(curve.empty());
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].first, curve[i].first);
    EXPECT_LE(curve[i - 1].second, curve[i].second);
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST(EmpiricalCdf, MeanMatches) {
  EmpiricalCdf cdf;
  cdf.add_all({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(cdf.mean(), 2.5);
}

TEST(EmpiricalCdf, EmptyCdfDegradesGracefully) {
  // quantile/min/max/median require samples (SCION_CHECK); everything a
  // renderer calls on a possibly-empty series must not.
  const EmpiricalCdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_EQ(cdf.count(), 0u);
  EXPECT_EQ(cdf.summary(), "(empty)");
  EXPECT_DOUBLE_EQ(cdf.mean(), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_at_most(1.0), 0.0);
  EXPECT_TRUE(cdf.curve(16).empty());
}

TEST(GeometricMean, BasicAndZero) {
  EXPECT_DOUBLE_EQ(geometric_mean({4.0, 9.0}), 6.0);
  EXPECT_DOUBLE_EQ(geometric_mean({2.0, 2.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(geometric_mean({5.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(geometric_mean({}), 0.0);
}

TEST(GeometricMean, NoOverflowOnLargeValues) {
  std::vector<double> big(64, 1e100);
  EXPECT_NEAR(geometric_mean(big), 1e100, 1e90);
}

// --- Flags --------------------------------------------------------------------

TEST(Flags, ParsesKeyValueAndBooleans) {
  const char* argv[] = {"prog", "--scale=2.5", "--paper", "ignored",
                        "--name=abc"};
  Flags flags{5, const_cast<char**>(argv)};
  EXPECT_DOUBLE_EQ(flags.get_double("scale", 1.0), 2.5);
  EXPECT_TRUE(flags.get_bool("paper", false));
  EXPECT_EQ(flags.get("name", ""), "abc");
  EXPECT_EQ(flags.get_int("missing", 7), 7);
  // Anything that is not a --key[=value] flag is kept as a stray.
  EXPECT_EQ(flags.strays(), std::vector<std::string>{"ignored"});

  // perfbench's --seed=%d, --seconds=%g and --trace=0|1 values.
  const char* perf_argv[] = {"prog",        "--seed=-3",  "--seconds=2.5e-05",
                             "--big=1e+06", "--trace=0",  "--on=1",
                             "--count=20"};
  const Flags perf{7, const_cast<char**>(perf_argv)};
  EXPECT_EQ(perf.get_int("seed", 1), -3);
  EXPECT_EQ(perf.get_double("seconds", 0.0), 2.5e-05);
  EXPECT_EQ(perf.get_double("big", 0.0), 1e+06);
  EXPECT_EQ(perf.get_double("count", 0.0), 20.0);
  EXPECT_FALSE(perf.get_bool("trace", true));
  EXPECT_TRUE(perf.get_bool("on", false));
}

/// The message of the std::runtime_error `get` throws, or "" if it returns.
template <typename Get>
std::string parse_error(Get get) {
  try {
    get();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Flags, MalformedValuesAreRejected) {
  const char* argv[] = {"prog",        "--minutes=abc", "--hours=5x",
                        "--scale=0.2.1", "--pairs=",    "--paper=maybe",
                        "--jobs"};
  const Flags flags{7, const_cast<char**>(argv)};
  EXPECT_EQ(parse_error([&] { return flags.get_int("minutes", 60); }),
            "invalid value for --minutes: abc");
  EXPECT_EQ(parse_error([&] { return flags.get_int("hours", 1); }),
            "invalid value for --hours: 5x");
  EXPECT_EQ(parse_error([&] { return flags.get_double("scale", 1.0); }),
            "invalid value for --scale: 0.2.1");
  EXPECT_EQ(parse_error([&] { return flags.get_int("pairs", 60); }),
            "invalid value for --pairs: ");
  EXPECT_EQ(parse_error([&] { return flags.get_bool("paper", false); }),
            "invalid value for --paper: maybe");
  // A bare --jobs means "true", which is no count.
  EXPECT_EQ(parse_error([&] { return flags.get_int("jobs", 1); }),
            "invalid value for --jobs: true");
}

TEST(Flags, UnreadListsSetFlagsNoLookupRead) {
  const char* argv[] = {"prog", "--scale=0.2", "--sampled-pairs=20",
                        "--jobs=4", "--dry-run"};
  Flags flags{5, const_cast<char**>(argv)};
  EXPECT_EQ(flags.unread(),
            (std::vector<std::string>{"dry-run", "jobs", "sampled-pairs",
                                      "scale"}));
  EXPECT_DOUBLE_EQ(flags.get_double("scale", 1.0), 0.2);
  EXPECT_TRUE(flags.get_bool("dry-run", false));
  // Reading a key that was not set marks nothing set as read.
  EXPECT_EQ(flags.get_int("pairs", 60), 60);
  EXPECT_EQ(flags.unread(),
            (std::vector<std::string>{"jobs", "sampled-pairs"}));
  EXPECT_EQ(flags.get_int("jobs", 1), 4);
  EXPECT_EQ(flags.unread(), std::vector<std::string>{"sampled-pairs"});
}

TEST(Flags, RejectUnusedNamesStraysThenUnreadFlags) {
  const char* stray_argv[] = {"prog", "minutes=1", "--minutes=1"};
  const Flags strays{3, const_cast<char**>(stray_argv)};
  EXPECT_EQ(strays.strays(), std::vector<std::string>{"minutes=1"});
  EXPECT_EQ(reject_unused(strays, "prog"), 2);

  const char* argv[] = {"prog", "--minutes=1", "--jobs=4"};
  const Flags flags{3, const_cast<char**>(argv)};
  EXPECT_EQ(reject_unused(flags, "prog"), 2);  // neither flag read
  EXPECT_EQ(flags.get_int("minutes", 60), 1);
  EXPECT_EQ(reject_unused(flags, "prog"), 2);  // --jobs unread
  EXPECT_EQ(flags.get_int("jobs", 1), 4);
  EXPECT_EQ(reject_unused(flags, "prog"), 0);
}

}  // namespace
}  // namespace scion::util
