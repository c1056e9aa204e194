#include <gtest/gtest.h>

#include "experiments/grid_search.hpp"
#include "experiments/quality_experiment.hpp"
#include "topology/generator.hpp"

namespace scion::exp {
namespace {

topo::Topology tiny_core() {
  topo::ScionLabConfig config;
  config.n_cores = 10;
  config.extra_edge_fraction = 0.5;
  config.seed = 4;
  return topo::generate_scionlab(config);
}

GridSearchConfig quick_config() {
  GridSearchConfig config;
  config.sim_duration = util::Duration::minutes(40);
  config.sampled_pairs = 15;
  config.coarse_alpha = {2.0};
  config.coarse_beta = {1.0, 3.0};
  config.coarse_gamma = {2.0};
  config.seed = 9;
  return config;
}

TEST(GridSearch, EvaluatesCoarsePlusRefinement) {
  const topo::Topology core = tiny_core();
  const GridSearchConfig config = quick_config();
  const GridSearchResult result = grid_search_diversity_params(core, config);
  // 1x2x1 coarse + 6 refinement points.
  EXPECT_EQ(result.evaluated.size(), 2u + 6u);
  EXPECT_GT(result.baseline_bytes, util::Bytes::zero());
}

TEST(GridSearch, BestIsArgmaxOfObjective) {
  const topo::Topology core = tiny_core();
  const GridSearchResult result =
      grid_search_diversity_params(core, quick_config());
  for (const EvaluatedPoint& p : result.evaluated) {
    EXPECT_LE(p.objective, result.best.objective);
  }
}

TEST(GridSearch, PointsAreInternallyConsistent) {
  const topo::Topology core = tiny_core();
  const GridSearchConfig config = quick_config();
  const GridSearchResult result = grid_search_diversity_params(core, config);
  for (const EvaluatedPoint& p : result.evaluated) {
    EXPECT_GE(p.quality, 0.0);
    EXPECT_LE(p.quality, 1.0);
    EXPECT_GE(p.overhead, 0.0);
    EXPECT_NEAR(p.objective,
                p.quality - config.overhead_weight * p.overhead, 1e-12);
  }
}

TEST(GridSearch, DiversityOverheadBelowBaseline) {
  const topo::Topology core = tiny_core();
  const GridSearchResult result =
      grid_search_diversity_params(core, quick_config());
  // Every sane parameter point should undercut the baseline's bytes.
  EXPECT_LT(result.best.overhead, 1.0);
}

TEST(GridSearch, EvaluateSinglePointMatchesSearchSetup) {
  // The search scores a point as one diversity series of the path-quality
  // runner over its own pair draws, against the baseline's bytes.
  const topo::Topology core = tiny_core();
  GridSearchConfig config = quick_config();
  config.coarse_beta = {1.0};
  const GridSearchResult result = grid_search_diversity_params(core, config);
  const EvaluatedPoint& point = result.evaluated.front();

  ctrl::BeaconingSimConfig sim = quality_beaconing_config(
      ctrl::AlgorithmKind::kDiversity, config.sim_duration, config.seed);
  sim.server.diversity = point.params;
  util::Rng rng{config.seed ^ 0x6412D};
  const QualityResult r = run_path_quality(
      core, core, draw_pairs(rng, core.as_count(), config.sampled_pairs),
      {{"point", sim}});
  EXPECT_EQ(point.quality, r.fraction_of_optimal(r.series[0]));
  EXPECT_EQ(point.overhead,
            static_cast<double>(r.series[0].bytes.value()) /
                static_cast<double>(result.baseline_bytes.value()));
}

}  // namespace
}  // namespace scion::exp
