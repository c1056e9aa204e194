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

#include "bench/bench_common.hpp"
#include "experiments/quality_experiment.hpp"

namespace scion::exp {
namespace {

obs::Table ablation_table(const QualityResult& r) {
  obs::Table t{"Scoring-function ablation (diversity algorithm variants)",
               {obs::Column{"variant", obs::Align::kLeft, 28},
                obs::Column{"bytes", obs::Align::kRight, 14},
                obs::Column{"PCBs", obs::Align::kRight, 10},
                obs::Column{"capacity/optimal", obs::Align::kRight, 18}}};
  for (const QualitySeries& s : r.series) {
    t.row({s.name, obs::fmt_u64(s.bytes.value()), obs::fmt_u64(s.pcbs),
           obs::fmt_f(r.fraction_of_optimal(s), 3)});
  }
  return t;
}

void run(const util::Flags&, const Scale& scale, BenchReport& report) {
  const topo::Topology internet = build_internet(scale);
  const CoreNetworks nets = build_core_networks(scale, internet);
  const auto variant = [&](const std::string& name,
                           const ctrl::DiversityParams& params,
                           bool as_disjoint) {
    ctrl::BeaconingSimConfig config = quality_beaconing_config(
        ctrl::AlgorithmKind::kDiversity, scale.quality_duration, scale.seed);
    config.server.diversity = params;
    if (as_disjoint) {
      config.server.diversity_link_canonicalizer =
          ctrl::as_pair_canonicalizer(nets.scion_view);
    }
    return QualitySeriesSpec{name, config};
  };

  const ctrl::DiversityParams full;
  ctrl::DiversityParams no_age = full;
  no_age.alpha = 0.0;
  ctrl::DiversityParams no_suppress = full;
  no_suppress.gamma = 0.0;  // g == 1 regardless of remaining lifetime
  no_suppress.beta = 0.0;   // and Eq. 3's ratio never suppresses
  // The alternative reading of the Link History Table in which counters
  // decrement when sent paths expire: the footprint re-floods every PCB
  // lifetime (see scoring.hpp).
  ctrl::DiversityParams decrement = full;
  decrement.decrement_on_expiry = true;

  util::Rng rng{scale.seed ^ 0xAB1A};
  const QualityResult result = run_path_quality(
      nets.scion_view, nets.scion_view,
      draw_pairs(rng, nets.scion_view.as_count(), scale.sampled_pairs),
      {variant("full", full, false),
       variant("no-age (alpha=0)", no_age, false),
       variant("no-suppress (beta=gamma=0)", no_suppress, false),
       variant("decrement-on-expiry", decrement, false),
       variant("as-disjoint counters", full, true)});

  const obs::Table table = ablation_table(result);
  obs::print_line("");
  obs::print(table.to_text());
  report.table(table);
  for (const QualitySeries& s : result.series) {
    report.scalar("capacity_of_optimal:" + s.name,
                  result.fraction_of_optimal(s));
    report.scalar("bytes:" + s.name, static_cast<double>(s.bytes.value()));
  }
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("ablation_scoring", argc, argv,
                                scion::exp::run);
}
