#include "experiments/grid_search.hpp"

#include <algorithm>

#include "experiments/quality_experiment.hpp"

namespace scion::exp {

namespace {

/// Each refinement step moves one parameter by this fraction of the coarse
/// winner's value.
constexpr double kRefineFraction = 0.5;

}  // namespace

GridSearchResult grid_search_diversity_params(const topo::Topology& scion_view,
                                              const GridSearchConfig& config) {
  GridSearchResult result;
  util::Rng rng{config.seed ^ 0x6412D};
  const AsPairs pairs =
      draw_pairs(rng, scion_view.as_count(), config.sampled_pairs);

  // One path-quality run per pass: the baseline reference for the overhead
  // normalization (first pass only), then one series per point. The winner
  // folds in evaluation order; the strict `>` keeps the earliest-evaluated
  // point on ties.
  const auto evaluate = [&](const std::vector<ctrl::DiversityParams>& points,
                            bool with_baseline) {
    std::vector<QualitySeriesSpec> series;
    if (with_baseline) {
      series.push_back({"baseline", quality_beaconing_config(
                                        ctrl::AlgorithmKind::kBaseline,
                                        config.sim_duration, config.seed)});
    }
    for (const ctrl::DiversityParams& params : points) {
      ctrl::BeaconingSimConfig c = quality_beaconing_config(
          ctrl::AlgorithmKind::kDiversity, config.sim_duration, config.seed);
      c.server.diversity = params;
      series.push_back({"diversity", c});
    }
    const QualityResult r =
        run_path_quality(scion_view, scion_view, pairs, series, config.jobs);
    if (with_baseline) result.baseline_bytes = r.series.front().bytes;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const QualitySeries& s = r.series[i + (with_baseline ? 1 : 0)];
      EvaluatedPoint point;
      point.params = points[i];
      point.quality = r.fraction_of_optimal(s);
      point.overhead =
          result.baseline_bytes > util::Bytes::zero()
              ? static_cast<double>(s.bytes.value()) /
                    static_cast<double>(result.baseline_bytes.value())
              : 0.0;
      point.objective =
          point.quality - GridSearchConfig::overhead_weight * point.overhead;
      result.evaluated.push_back(point);
      if (result.evaluated.size() == 1 ||
          point.objective > result.best.objective) {
        result.best = point;
      }
    }
  };

  // Coarse pass: exponentially spaced values.
  std::vector<ctrl::DiversityParams> coarse;
  for (const double alpha : config.coarse_alpha) {
    for (const double beta : config.coarse_beta) {
      for (const double gamma : config.coarse_gamma) {
        ctrl::DiversityParams params;
        params.alpha = alpha;
        params.beta = beta;
        params.gamma = gamma;
        coarse.push_back(params);
      }
    }
  }
  evaluate(coarse, true);

  // Fine pass: one linear step around the coarse winner, one axis at a time.
  const ctrl::DiversityParams center = result.best.params;
  std::vector<ctrl::DiversityParams> fine;
  for (const double direction : {-1.0, 1.0}) {
    const double f = 1.0 + direction * kRefineFraction;
    ctrl::DiversityParams p = center;
    p.alpha = std::max(0.0, center.alpha * f);
    fine.push_back(p);
    p = center;
    p.beta = std::max(0.0, center.beta * f);
    fine.push_back(p);
    p = center;
    p.gamma = std::max(0.0, center.gamma * f);
    fine.push_back(p);
  }
  evaluate(fine, false);
  return result;
}

}  // namespace scion::exp
