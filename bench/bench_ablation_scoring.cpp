// Ablation of the scoring function's design choices (Section 4.2):
//   - full:        the paper's scoring (Eqs. 1-3, link-disjointness)
//   - no-age:      alpha = 0 — fresh PCBs never decay (Eq. 2 disabled)
//   - no-suppress: gamma = 0 — previously sent paths score like new ones
//                  (Eq. 3 disabled), so every interval resends
//   - as-disjoint: counters keyed per AS pair instead of per link, the
//                  alternative the paper rejects because it wastes the
//                  resilience of parallel links
// For each variant: control-plane bytes and fraction-of-optimal capacity.
#include <vector>

#include "analysis/path_quality.hpp"
#include "bench/bench_common.hpp"
#include "core/beaconing_sim.hpp"

namespace scion::exp {
namespace {

struct VariantResult {
  std::string name;
  util::Bytes bytes{};
  std::uint64_t pcbs{0};
  double fraction_of_optimal{0.0};
};

VariantResult run_variant(const std::string& name,
                          const topo::Topology& scion_view,
                          const ctrl::DiversityParams& params,
                          bool as_disjoint, const Scale& scale) {
  ctrl::BeaconingSimConfig config;
  config.server.algorithm = ctrl::AlgorithmKind::kDiversity;
  config.server.store_policy = ctrl::StorePolicy::kDiversityAware;
  config.server.diversity = params;
  config.server.compute_crypto = false;
  if (as_disjoint) {
    config.server.diversity_link_canonicalizer =
        ctrl::as_pair_canonicalizer(scion_view);
  }
  config.sim_duration = scale.quality_duration;
  config.seed = scale.seed;
  ctrl::BeaconingSim sim{scion_view, config};
  sim.run();

  VariantResult result;
  result.name = name;
  result.bytes = sim.total_bytes();
  result.pcbs = sim.total_pcbs_sent();

  // Capacity vs optimum over sampled pairs.
  analysis::QualityEvaluator evaluator{scion_view};
  util::Rng rng{scale.seed ^ 0xAB1A};
  double achieved = 0, optimal = 0;
  for (std::size_t i = 0; i < scale.sampled_pairs; ++i) {
    const auto a = static_cast<topo::AsIndex>(rng.index(scion_view.as_count()));
    const auto b = static_cast<topo::AsIndex>(rng.index(scion_view.as_count()));
    if (a == b) continue;
    auto paths = sim.paths_at(a, scion_view.as_id(b));
    auto reverse = sim.paths_at(b, scion_view.as_id(a));
    paths.insert(paths.end(), reverse.begin(), reverse.end());
    achieved += evaluator.of_paths(paths, a, b);
    optimal += evaluator.optimal(a, b);
  }
  result.fraction_of_optimal = optimal > 0 ? achieved / optimal : 0;
  return result;
}

obs::Table ablation_table(const std::vector<VariantResult>& results) {
  obs::Table t{"Scoring-function ablation (diversity algorithm variants)",
               {obs::Column{"variant", obs::Align::kLeft, 28},
                obs::Column{"bytes", obs::Align::kRight, 14},
                obs::Column{"PCBs", obs::Align::kRight, 10},
                obs::Column{"capacity/optimal", obs::Align::kRight, 18}}};
  for (const auto& r : results) {
    t.row({r.name, obs::fmt_u64(r.bytes.value()), obs::fmt_u64(r.pcbs),
           obs::fmt_f(r.fraction_of_optimal, 3)});
  }
  return t;
}

void run(const util::Flags&, const Scale& scale, BenchReport& report) {
  const topo::Topology internet = build_internet(scale);
  const CoreNetworks nets = build_core_networks(scale, internet);
  std::vector<VariantResult> results;

  ctrl::DiversityParams full;
  results.push_back(run_variant("full", nets.scion_view, full, false, scale));

  ctrl::DiversityParams no_age = full;
  no_age.alpha = 0.0;
  results.push_back(
      run_variant("no-age (alpha=0)", nets.scion_view, no_age, false, scale));

  ctrl::DiversityParams no_suppress = full;
  no_suppress.gamma = 0.0;  // g == 1 regardless of remaining lifetime
  no_suppress.beta = 0.0;   // and Eq. 3's ratio never suppresses
  results.push_back(run_variant("no-suppress (beta=gamma=0)", nets.scion_view,
                                no_suppress, false, scale));

  // The alternative reading of the Link History Table in which counters
  // decrement when sent paths expire: the footprint re-floods every PCB
  // lifetime (see scoring.hpp).
  ctrl::DiversityParams decrement = full;
  decrement.decrement_on_expiry = true;
  results.push_back(run_variant("decrement-on-expiry", nets.scion_view,
                                decrement, false, scale));

  results.push_back(
      run_variant("as-disjoint counters", nets.scion_view, full, true, scale));

  const obs::Table table = ablation_table(results);
  obs::print_line("");
  obs::print(table.to_text());
  report.table(table);
  for (const auto& r : results) {
    report.scalar("capacity_of_optimal:" + r.name, r.fraction_of_optimal);
    report.scalar("bytes:" + r.name, static_cast<double>(r.bytes.value()));
  }
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("ablation_scoring", argc, argv,
                                scion::exp::run);
}
