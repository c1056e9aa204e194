#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/path_quality.hpp"
#include "experiments/fault_response.hpp"
#include "experiments/overhead_experiment.hpp"
#include "experiments/quality_experiment.hpp"
#include "experiments/scale.hpp"
#include "experiments/scionlab_experiment.hpp"
#include "experiments/table1_experiment.hpp"

namespace scion::exp {
namespace {

Scale tiny_scale() {
  Scale s;
  s.internet_ases = 150;
  s.n_tier1 = 6;
  s.core_ases = 30;
  s.core_isds = 3;
  s.isd_ases = 60;
  s.isd_cores = 4;
  s.scionlab_cores = 12;
  s.monitors = 6;
  s.sampled_pairs = 30;
  s.bgp_sampled_origins = 40;
  s.beaconing_duration = util::Duration::hours(1);
  s.bgp_churn_window = util::Duration::minutes(20);
  s.seed = 3;
  return s;
}

TEST(Scale, FlagsOverrideDefaults) {
  const char* argv[] = {"prog", "--core-ases=99", "--monitors=5"};
  util::Flags flags{3, const_cast<char**>(argv)};
  const Scale s = Scale::from_flags(flags);
  EXPECT_EQ(s.core_ases, 99u);
  EXPECT_EQ(s.monitors, 5u);
  EXPECT_EQ(s.internet_ases, Scale{}.internet_ases);
}

TEST(Scale, PaperPresetMatchesPaper) {
  const char* argv[] = {"prog", "--paper"};
  util::Flags flags{2, const_cast<char**>(argv)};
  const Scale s = Scale::from_flags(flags);
  EXPECT_EQ(s.internet_ases, 12000u);
  EXPECT_EQ(s.core_ases, 2000u);
  EXPECT_EQ(s.core_isds, 200u);
  EXPECT_EQ(s.monitors, 26u);
}

TEST(Scale, ScaleMultiplierApplies) {
  const char* argv[] = {"prog", "--scale=0.5"};
  util::Flags flags{2, const_cast<char**>(argv)};
  const Scale s = Scale::from_flags(flags);
  EXPECT_EQ(s.internet_ases, Scale{}.internet_ases / 2);
}

TEST(Builders, CoreNetworksShareIndices) {
  const Scale s = tiny_scale();
  const topo::Topology internet = build_internet(s);
  const CoreNetworks nets = build_core_networks(s, internet);
  EXPECT_EQ(nets.bgp_view.as_count(), nets.scion_view.as_count());
  EXPECT_EQ(nets.bgp_view.link_count(), nets.scion_view.link_count());
  EXPECT_TRUE(nets.scion_view.connected());
}

TEST(Builders, PrefixCountsHeavyTailed) {
  const Scale s = tiny_scale();
  const topo::Topology internet = build_internet(s);
  const auto counts = prefix_counts(internet, 1);
  ASSERT_EQ(counts.size(), internet.as_count());
  std::uint32_t max_count = 0;
  double total = 0;
  for (const std::uint32_t c : counts) {
    EXPECT_GE(c, 1u);
    max_count = std::max(max_count, c);
    total += c;
  }
  EXPECT_GT(max_count, 10u * static_cast<std::uint32_t>(
                                 total / static_cast<double>(counts.size())))
      << "the tail must dominate the mean";
}

TEST(Builders, MonitorsMapIntoCoreNetwork) {
  const Scale s = tiny_scale();
  const topo::Topology internet = build_internet(s);
  const CoreNetworks nets = build_core_networks(s, internet);
  const auto monitors = pick_monitors(internet, s.monitors);
  std::size_t found = 0;
  for (const topo::AsIndex m : monitors) {
    if (find_by_as_number(nets.scion_view,
                          internet.as_id(m).as_number()) !=
        topo::kInvalidAsIndex) {
      ++found;
    }
  }
  EXPECT_GE(found, monitors.size() - 1)
      << "high-degree monitors survive the pruning";
}

TEST(PairSampling, SampledPairsAreDistinctAndNormalized) {
  util::Rng rng{42};
  const auto pairs = sample_distinct_pairs(rng, 40, 100);
  ASSERT_EQ(pairs.size(), 100u);
  std::set<std::pair<topo::AsIndex, topo::AsIndex>> seen;
  for (const auto& [s, t] : pairs) {
    EXPECT_LT(s, t);  // normalized: (a, b) == (b, a)
    EXPECT_LT(t, 40u);
    EXPECT_TRUE(seen.emplace(s, t).second) << "duplicate pair " << s << '-' << t;
  }
}

TEST(PairSampling, SaturatedRequestEnumeratesEveryPair) {
  // Regression: the old rejection loop could spin forever (and returned
  // duplicates) when the request reached the population size. want >=
  // n*(n-1)/2 must yield the exact full enumeration.
  util::Rng rng{42};
  const std::size_t n = 12;
  const std::size_t max_pairs = n * (n - 1) / 2;  // 66
  for (const std::size_t want : {max_pairs, max_pairs + 50}) {
    const auto pairs = sample_distinct_pairs(rng, n, want);
    ASSERT_EQ(pairs.size(), max_pairs);
    std::set<std::pair<topo::AsIndex, topo::AsIndex>> seen;
    for (const auto& [s, t] : pairs) {
      EXPECT_LT(s, t);
      seen.emplace(s, t);
    }
    EXPECT_EQ(seen.size(), max_pairs) << "every unordered pair exactly once";
  }
}

TEST(PairSampling, DenseRequestTerminatesWithDistinctPairs) {
  // Near saturation the helper switches to shuffle-truncate; the result is
  // still distinct and exactly the requested size.
  util::Rng rng{7};
  const std::size_t n = 10;           // 45 possible pairs
  const auto pairs = sample_distinct_pairs(rng, n, 40);
  ASSERT_EQ(pairs.size(), 40u);
  std::set<std::pair<topo::AsIndex, topo::AsIndex>> seen;
  for (const auto& p : pairs) seen.insert(p);
  EXPECT_EQ(seen.size(), 40u);
}

TEST(PairSampling, DegenerateInputs) {
  util::Rng rng{1};
  EXPECT_TRUE(sample_distinct_pairs(rng, 0, 10).empty());
  EXPECT_TRUE(sample_distinct_pairs(rng, 1, 10).empty());
  EXPECT_TRUE(sample_distinct_pairs(rng, 10, 0).empty());
}

TEST(QualityExperiment, SaturatedSamplingFallsBackToFullEnumeration) {
  // Regression for the quality experiment's old sampler: asking for at
  // least as many pairs as exist must evaluate each pair exactly once.
  const Scale s = tiny_scale();
  const topo::Topology internet = build_internet(s);
  const CoreNetworks nets = build_core_networks(s, internet);
  const std::size_t n = nets.scion_view.as_count();
  const std::size_t max_pairs = n * (n - 1) / 2;

  QualityConfig config;
  config.diversity_storage_limits = {15};
  config.baseline_storage_limits = {};
  config.include_bgp = false;
  config.sampled_pairs = max_pairs + 10;  // more than exist
  config.sim_duration = util::Duration::minutes(30);
  config.seed = 3;
  const QualityResult r =
      run_quality_experiment(nets.bgp_view, nets.scion_view, config);

  ASSERT_EQ(r.pairs.size(), max_pairs);
  std::set<std::pair<topo::AsIndex, topo::AsIndex>> seen;
  for (const auto& [a, b] : r.pairs) {
    EXPECT_LT(a, b);
    seen.emplace(a, b);
  }
  EXPECT_EQ(seen.size(), max_pairs) << "all pairs distinct";
}

TEST(QualityExperiment, SeriesBoundedByOptimum) {
  const Scale s = tiny_scale();
  const topo::Topology internet = build_internet(s);
  const CoreNetworks nets = build_core_networks(s, internet);
  QualityConfig config;
  config.diversity_storage_limits = {15};
  config.baseline_storage_limits = {15};
  config.sampled_pairs = 20;
  config.sim_duration = util::Duration::hours(1);
  config.seed = 3;
  const QualityResult r =
      run_quality_experiment(nets.bgp_view, nets.scion_view, config);

  ASSERT_EQ(r.series.size(), 3u);  // baseline, diversity, BGP
  for (const QualitySeries& series : r.series) {
    ASSERT_EQ(series.values.size(), r.pairs.size());
    for (std::size_t i = 0; i < series.values.size(); ++i) {
      EXPECT_LE(series.values[i], r.optimum[i])
          << series.name << " cannot beat the optimum";
      EXPECT_GE(series.values[i], 0);
    }
    EXPECT_LE(r.fraction_of_optimal(series), 1.0);
  }
  for (const int opt : r.optimum) {
    EXPECT_GE(opt, 1) << "the core network is connected";
  }
}

TEST(QualityExperiment, DiversityBeatsBaselineOnAggregate) {
  const Scale s = tiny_scale();
  const topo::Topology internet = build_internet(s);
  const CoreNetworks nets = build_core_networks(s, internet);
  QualityConfig config;
  config.diversity_storage_limits = {60};
  config.baseline_storage_limits = {60};
  config.include_bgp = true;
  config.sampled_pairs = 30;
  config.sim_duration = util::Duration::hours(2);
  config.seed = 5;
  const QualityResult r =
      run_quality_experiment(nets.bgp_view, nets.scion_view, config);

  double baseline = 0, diversity = 0, bgp_frac = 0;
  for (const QualitySeries& series : r.series) {
    const double f = r.fraction_of_optimal(series);
    if (series.name.find("Baseline") != std::string::npos) baseline = f;
    if (series.name.find("Diversity") != std::string::npos) diversity = f;
    if (series.name.find("BGP") != std::string::npos) bgp_frac = f;
  }
  EXPECT_GE(diversity, baseline) << "Fig. 6: diversity at least matches baseline";
  EXPECT_GT(diversity, bgp_frac) << "Fig. 6: SCION beats BGP multipath";
}

/// What the capacity-vs-optimum loop the runner replaced computed: `draws`
/// with-replacement draws from Rng{seed}, skipping a == b, each pair scored
/// on `paths_of(a, b)` with QualityEvaluator::of_paths against
/// QualityEvaluator::optimal, and the two summed in draw order.
struct ReferenceScore {
  AsPairs pairs;
  std::vector<int> values;
  std::vector<int> optimum;
  double fraction{0.0};
};

template <typename PathsOf>
ReferenceScore reference_score(const topo::Topology& view, std::uint64_t seed,
                               std::size_t draws, const PathsOf& paths_of) {
  analysis::QualityEvaluator evaluator{view};
  util::Rng rng{seed};
  ReferenceScore ref;
  double achieved = 0, optimal = 0;
  for (std::size_t i = 0; i < draws; ++i) {
    const auto a = static_cast<topo::AsIndex>(rng.index(view.as_count()));
    const auto b = static_cast<topo::AsIndex>(rng.index(view.as_count()));
    if (a == b) continue;
    const std::vector<std::vector<topo::LinkIndex>> paths = paths_of(a, b);
    ref.pairs.emplace_back(a, b);
    ref.values.push_back(evaluator.of_paths(paths, a, b));
    ref.optimum.push_back(evaluator.optimal(a, b));
    achieved += ref.values.back();
    optimal += ref.optimum.back();
  }
  ref.fraction = optimal > 0 ? achieved / optimal : 0;
  return ref;
}

TEST(QualityRunner, MatchesHandWrittenLoopBitForBit) {
  Scale s = tiny_scale();
  s.core_ases = 10;
  const topo::Topology internet = build_internet(s);
  const CoreNetworks nets = build_core_networks(s, internet);
  const topo::Topology& view = nets.scion_view;
  ASSERT_EQ(view.as_count(), 10u);
  constexpr std::uint64_t kSeed = 0x5EED;
  constexpr std::size_t kDraws = 60;
  const util::Duration duration = util::Duration::hours(1);

  const ctrl::BeaconingSimConfig baseline = quality_beaconing_config(
      ctrl::AlgorithmKind::kBaseline, duration, s.seed);
  ctrl::BeaconingSimConfig diversity = quality_beaconing_config(
      ctrl::AlgorithmKind::kDiversity, duration, s.seed);
  diversity.server.storage_limit = 15;
  bgp::BgpSimConfig bgp;
  bgp.seed = s.seed;
  bgp.churn_window = util::Duration::minutes(5);
  bgp.flaps_per_adjacency_per_day = 0.0;
  util::Rng rng{kSeed};
  const QualityResult r = run_path_quality(
      nets.bgp_view, view, draw_pairs(rng, view.as_count(), kDraws),
      {{"baseline", baseline}, {"diversity", diversity}, {"bgp", bgp}}, 2);

  std::vector<ReferenceScore> refs;
  for (const ctrl::BeaconingSimConfig& config : {baseline, diversity}) {
    ctrl::BeaconingSim sim{view, config};
    sim.run();
    refs.push_back(reference_score(
        view, kSeed, kDraws, [&](topo::AsIndex a, topo::AsIndex b) {
          auto paths = sim.paths_at(a, view.as_id(b));
          const auto reverse = sim.paths_at(b, view.as_id(a));
          paths.insert(paths.end(), reverse.begin(), reverse.end());
          EXPECT_EQ(sim.paths_between(a, b), paths);
          return paths;
        }));
  }
  bgp::BgpSim bgp_sim{nets.bgp_view, bgp};
  bgp_sim.run();
  refs.push_back(reference_score(
      view, kSeed, kDraws, [&](topo::AsIndex a, topo::AsIndex b) {
        auto paths = bgp_sim.bgp_link_paths(a, b);
        const auto reverse = bgp_sim.bgp_link_paths(b, a);
        paths.insert(paths.end(), reverse.begin(), reverse.end());
        return paths;
      }));

  EXPECT_EQ(r.pairs, refs.front().pairs)
      << "draw_pairs yields the non-skipped draws in order";
  EXPECT_LT(r.pairs.size(), kDraws) << "some draws were skipped";
  EXPECT_LT(std::set(r.pairs.begin(), r.pairs.end()).size(), r.pairs.size())
      << "some pairs were drawn twice";
  EXPECT_EQ(r.optimum, refs.front().optimum);
  ASSERT_EQ(r.series.size(), refs.size());
  for (std::size_t k = 0; k < refs.size(); ++k) {
    EXPECT_EQ(r.series[k].values, refs[k].values) << r.series[k].name;
    EXPECT_EQ(r.fraction_of_optimal(r.series[k]), refs[k].fraction)
        << r.series[k].name;
  }
}

/// Every field of a dynamic-resilience result, floats in hex.
std::string transcript(const FaultResponseResult& r) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const auto& [a, b] : r.pairs) out << a << '-' << b << ' ';
  for (const FaultResponseSeries& s : r.series) {
    out << '\n' << s.name << " lag=";
    for (const double x : s.lag_seconds.sorted()) out << x << ',';
    out << " outages=" << s.outages << " rec=" << s.recovered << '/'
        << s.unrecovered << " avail=" << s.availability
        << " probes=" << s.probes_up << '/' << s.probes
        << " faults=" << s.fault_stats.link_down_events
        << " drops=" << s.drops.total() << " revoked=" << s.pcbs_revoked;
  }
  return std::move(out).str();
}

// Without a fault plan the experiment synthesizes its default flap process
// (the fault smoke always passes a scenario file, so only this runs it). At
// a storm rate every series sees outages, and some are still open when the
// run ends.
TEST(DynResilienceExperiment, DefaultFlapScenarioProbesEverySeries) {
  const Scale s = tiny_scale();
  const topo::Topology internet = build_internet(s);
  const CoreNetworks nets = build_core_networks(s, internet);
  FaultResponseConfig config;
  config.sampled_pairs = 15;
  config.sim_duration = util::Duration::minutes(20);
  config.probe_interval = util::Duration::seconds(30);
  config.seed = 3;
  config.jobs = 1;
  constexpr double kFlapRatePerHour = 1200.0;
  const FaultResponseResult serial = run_dyn_resilience_experiment(
      nets.bgp_view, nets.scion_view, config, kFlapRatePerHour);

  ASSERT_EQ(serial.series.size(), 3u);  // baseline, diversity, BGP
  ASSERT_FALSE(serial.pairs.empty());
  for (const FaultResponseSeries& series : serial.series) {
    EXPECT_GT(series.probes, 0u) << series.name;
    EXPECT_EQ(series.probes % serial.pairs.size(), 0u) << series.name;
    EXPECT_GT(series.outages, 0u) << series.name;
    EXPECT_EQ(series.outages, series.recovered + series.unrecovered)
        << series.name;
    EXPECT_GT(series.fault_stats.link_down_events, 0u)
        << series.name << ": the default flap process fired";
  }

  config.jobs = 3;
  const FaultResponseResult parallel = run_dyn_resilience_experiment(
      nets.bgp_view, nets.scion_view, config, kFlapRatePerHour);
  EXPECT_EQ(transcript(serial), transcript(parallel));
}

TEST(ScionLabExperiment, RunsAndMatchesPaperShape) {
  Scale s = tiny_scale();
  s.sampled_pairs = 40;
  const ScionLabResult r = run_scionlab_experiment(s);
  EXPECT_FALSE(r.quality.series.empty());
  EXPECT_GT(r.bandwidth.count(), 0u);
  // Paper: the vast majority of interfaces stay below 4 KB/s.
  EXPECT_GT(r.fraction_below_4kbps, 0.6);
}

TEST(Table1Experiment, ProducesAllComponents) {
  Table1Config config;
  config.topology.n_isds = 3;
  config.topology.ases_per_isd = 8;
  config.sim_duration = util::Duration::minutes(40);
  const Table1Result r = run_table1_experiment(config);
  EXPECT_EQ(r.ledger.rows().size(), 7u);
  EXPECT_GT(r.lookups, 0u);
}

}  // namespace
}  // namespace scion::exp
