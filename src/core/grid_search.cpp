#include "core/grid_search.hpp"

#include <algorithm>

#include "analysis/path_quality.hpp"
#include "exec/task_pool.hpp"

namespace scion::ctrl {

namespace {

/// Each refinement step moves one parameter by this fraction of the coarse
/// winner's value.
constexpr double kRefineFraction = 0.5;

util::Bytes run_bytes(const topo::Topology& scion_view,
                      const BeaconingSimConfig& config) {
  BeaconingSim sim{scion_view, config};
  sim.run();
  return sim.total_bytes();
}

BeaconingSimConfig base_config(const GridSearchConfig& config) {
  BeaconingSimConfig c;
  c.server.compute_crypto = false;
  c.sim_duration = config.sim_duration;
  c.seed = config.seed;
  return c;
}

}  // namespace

EvaluatedPoint evaluate_diversity_params(const topo::Topology& scion_view,
                                         const DiversityParams& params,
                                         const GridSearchConfig& config,
                                         util::Bytes baseline_bytes) {
  BeaconingSimConfig c = base_config(config);
  c.server.algorithm = AlgorithmKind::kDiversity;
  c.server.store_policy = StorePolicy::kDiversityAware;
  c.server.diversity = params;
  BeaconingSim sim{scion_view, c};
  sim.run();

  analysis::QualityEvaluator evaluator{scion_view};
  util::Rng rng{config.seed ^ 0x6412D};
  double achieved = 0.0, optimal = 0.0;
  for (std::size_t i = 0; i < config.sampled_pairs; ++i) {
    const auto a = static_cast<topo::AsIndex>(rng.index(scion_view.as_count()));
    const auto b = static_cast<topo::AsIndex>(rng.index(scion_view.as_count()));
    if (a == b) continue;
    auto paths = sim.paths_at(a, scion_view.as_id(b));
    auto reverse = sim.paths_at(b, scion_view.as_id(a));
    paths.insert(paths.end(), reverse.begin(), reverse.end());
    achieved += evaluator.of_paths(paths, a, b);
    optimal += evaluator.optimal(a, b);
  }

  EvaluatedPoint point;
  point.params = params;
  point.quality = optimal > 0 ? achieved / optimal : 0.0;
  point.overhead =
      baseline_bytes > util::Bytes::zero()
          ? static_cast<double>(sim.total_bytes().value()) /
                static_cast<double>(baseline_bytes.value())
          : 0.0;
  point.objective =
      point.quality - GridSearchConfig::overhead_weight * point.overhead;
  return point;
}

GridSearchResult grid_search_diversity_params(const topo::Topology& scion_view,
                                              const GridSearchConfig& config) {
  GridSearchResult result;

  // Baseline reference for the overhead normalization.
  BeaconingSimConfig baseline = base_config(config);
  baseline.server.algorithm = AlgorithmKind::kBaseline;
  result.baseline_bytes = run_bytes(scion_view, baseline);

  // Each point evaluation is pure (own sim, own evaluator, own rng seeded
  // from the config), so a pass fans out over all its points and then folds
  // the winner sequentially in evaluation order — the strict `>` keeps the
  // earliest-evaluated point on ties, exactly like the serial loop did.
  auto evaluate_all = [&](const std::vector<DiversityParams>& points) {
    const std::vector<EvaluatedPoint> evaluated = exec::parallel_map(
        points,
        [&](const DiversityParams& params) {
          return evaluate_diversity_params(scion_view, params, config,
                                           result.baseline_bytes);
        },
        config.jobs);
    for (const EvaluatedPoint& point : evaluated) {
      result.evaluated.push_back(point);
      if (result.evaluated.size() == 1 ||
          point.objective > result.best.objective) {
        result.best = point;
      }
    }
  };

  // Coarse pass: exponentially spaced values.
  std::vector<DiversityParams> coarse;
  for (const double alpha : config.coarse_alpha) {
    for (const double beta : config.coarse_beta) {
      for (const double gamma : config.coarse_gamma) {
        DiversityParams params;
        params.alpha = alpha;
        params.beta = beta;
        params.gamma = gamma;
        coarse.push_back(params);
      }
    }
  }
  evaluate_all(coarse);

  // Fine pass: linear steps around the coarse winner, one axis at a time.
  const DiversityParams center = result.best.params;
  std::vector<DiversityParams> fine;
  for (int step = 1; step <= config.refine_steps; ++step) {
    const double f = kRefineFraction * step;
    for (const double direction : {-1.0, 1.0}) {
      DiversityParams p = center;
      p.alpha = std::max(0.0, center.alpha * (1.0 + direction * f));
      fine.push_back(p);
      p = center;
      p.beta = std::max(0.0, center.beta * (1.0 + direction * f));
      fine.push_back(p);
      p = center;
      p.gamma = std::max(0.0, center.gamma * (1.0 + direction * f));
      fine.push_back(p);
    }
  }
  evaluate_all(fine);
  return result;
}

}  // namespace scion::ctrl
