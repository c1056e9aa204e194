// Parameter fitting for the diversity algorithm (Section 4.2: "for a given
// topology, we find suitable parameters by first performing a grid search
// with exponentially spaced values ... followed by a grid search with
// linearly spaced values").
//
// The objective balances path quality (capacity achieved as a fraction of
// optimal over sampled pairs) against control-plane overhead (bytes,
// normalized by the baseline algorithm's bytes on the same topology).
#pragma once

#include <vector>

#include "core/scoring.hpp"
#include "topology/topology.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace scion::exp {

struct GridSearchConfig {
  /// Simulated duration per evaluated parameter point.
  util::Duration sim_duration{util::Duration::hours(2)};
  /// With-replacement pair draws for the quality term (draw_pairs).
  std::size_t sampled_pairs{60};
  /// Weight of the overhead penalty: objective = quality - weight * relative
  /// overhead (relative to the baseline algorithm; typically << 1 for any
  /// sane parameters, so small weights suffice).
  static constexpr double overhead_weight = 0.5;
  /// Exponentially spaced candidates for the coarse pass.
  std::vector<double> coarse_alpha{0.5, 2.0, 8.0};
  std::vector<double> coarse_beta{1.0, 3.0, 9.0};
  std::vector<double> coarse_gamma{1.0, 2.0, 4.0};
  std::uint64_t seed{1};
  /// Worker count for the per-point runs (0 = exec::default_jobs()). The
  /// winner and the evaluation log are byte-identical for any value.
  std::size_t jobs{0};
};

struct EvaluatedPoint {
  ctrl::DiversityParams params;
  double quality{0.0};    // capacity fraction of optimal
  double overhead{0.0};   // bytes relative to baseline
  double objective{0.0};  // quality - weight * overhead
};

struct GridSearchResult {
  EvaluatedPoint best;
  std::vector<EvaluatedPoint> evaluated;  // in evaluation order
  util::Bytes baseline_bytes{};
};

/// Runs the coarse exponential pass followed by one linear refinement step
/// per parameter and direction around the coarse winner. Each pass is one
/// path-quality run over the same pairs.
GridSearchResult grid_search_diversity_params(const topo::Topology& scion_view,
                                              const GridSearchConfig& config);

}  // namespace scion::exp
