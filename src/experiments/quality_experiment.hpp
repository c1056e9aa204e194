// Path quality (Section 5.3): the min-cut (= max-flow) between AS pairs over
// the union of the paths an algorithm disseminates, against the same cut on
// the full topology. One runner computes it for Figs. 6a/6b (core network)
// and 7/8 (SCIONLab), the Section 4.2 grid search, both ablations,
// `scion-mpr quality` and the beaconing_comparison example.
#pragma once

#include <string>
#include <variant>
#include <vector>

#include "bgp/bgp_sim.hpp"
#include "core/beaconing_sim.hpp"
#include "experiments/scale.hpp"

namespace scion::obs {
class Table;
}

namespace scion::exp {

/// One series of a path-quality run: a name and the simulation whose paths
/// it scores. A beaconing series runs on the SCION view and scores the
/// paths both ends of a pair store (BeaconingSim::paths_between); a BGP
/// series runs on the BGP view and scores the multipath routes both ends
/// learn.
struct QualitySeriesSpec {
  std::string name;
  std::variant<ctrl::BeaconingSimConfig, bgp::BgpSimConfig> sim;
};

struct QualitySeries {
  std::string name;
  /// Min-cut / max-flow value per pair (aligned with `pairs`).
  std::vector<int> values;
  /// Paths scored, summed over the pairs.
  std::uint64_t paths{0};
  /// PCB bytes and PCBs sent network-wide (zero for a BGP series).
  util::Bytes bytes{};
  std::uint64_t pcbs{0};
};

struct QualityResult {
  AsPairs pairs;
  std::vector<int> optimum;
  std::vector<QualitySeries> series;

  /// Sum(series)/Sum(optimum): the "fraction of optimal capacity" numbers
  /// quoted in Section 5.3.
  double fraction_of_optimal(const QualitySeries& s) const;
};

/// The path-quality runner: computes each pair's optimum on the full
/// `scion_view` once, serially on the calling thread, then runs each series
/// as one exec::parallel_map task (`jobs` workers, 0 = exec::default_jobs())
/// and scores every pair on that series' paths. The result is
/// byte-identical for any `jobs`.
QualityResult run_path_quality(const topo::Topology& bgp_view,
                               const topo::Topology& scion_view, AsPairs pairs,
                               const std::vector<QualitySeriesSpec>& series,
                               std::size_t jobs = 0);

/// The beaconing configuration a quality series starts from: core beaconing
/// with `algorithm` and its store policy, without crypto.
ctrl::BeaconingSimConfig quality_beaconing_config(ctrl::AlgorithmKind algorithm,
                                                  util::Duration duration,
                                                  std::uint64_t seed);

struct QualityConfig {
  /// Diversity runs, one per storage limit (0 = unlimited).
  std::vector<std::size_t> diversity_storage_limits{15, 30, 60, 0};
  /// Baseline runs, one per storage limit.
  std::vector<std::size_t> baseline_storage_limits{60};
  /// Include the BGP multipath series (needs the relationship-preserving
  /// view of the same topology).
  bool include_bgp{true};
  std::size_t sampled_pairs{200};
  util::Duration sim_duration{util::Duration::hours(6)};
  std::uint64_t seed{1};
  /// Worker count for the series (0 = exec::default_jobs()). Results are
  /// byte-identical for any value.
  std::size_t jobs{0};
};

/// Figs. 6–8: the baseline and diversity series per storage limit and BGP
/// multipath, on sampled distinct AS pairs.
QualityResult run_quality_experiment(const topo::Topology& bgp_view,
                                     const topo::Topology& scion_view,
                                     const QualityConfig& config);

/// Fig. 6a/7 table: per optimum value, the pair count and each series'
/// average achieved resilience.
obs::Table resilience_table(const QualityResult& r, int max_optimum);
void print_resilience(const QualityResult& r, int max_optimum);

/// Fig. 6b/8 table: capacity CDFs per series plus fraction of optimal.
obs::Table capacity_table(const QualityResult& r);
void print_capacity(const QualityResult& r);

}  // namespace scion::exp
