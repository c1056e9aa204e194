// Parameter sweeps around the evaluation's fixed choices (Section 5.1):
// dissemination limit (paper: 5) and beaconing interval (paper: 10 min),
// for both algorithms, reporting overhead and capacity quality. These
// quantify the overhead/quality trade-off the fixed parameters sit on.
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "experiments/quality_experiment.hpp"
// (<cstdio> stays for the snprintf label formatting in the sweep loops.)

namespace scion::exp {
namespace {

obs::Table sweep_table(const QualityResult& r) {
  obs::Table t{"Dissemination-limit and interval sweeps",
               {obs::Column{"configuration", obs::Align::kLeft, 28},
                obs::Column{"bytes", obs::Align::kRight, 14},
                obs::Column{"capacity/optimal", obs::Align::kRight, 18}}};
  for (const QualitySeries& s : r.series) {
    t.row({s.name, obs::fmt_u64(s.bytes.value()),
           obs::fmt_f(r.fraction_of_optimal(s), 3)});
  }
  return t;
}

void run(const util::Flags&, const Scale& base, BenchReport& report) {
  Scale scale = base;
  // Sweeps multiply runs; shrink the base topology a bit.
  scale.core_ases = std::min<std::size_t>(scale.core_ases, 48);
  const topo::Topology internet = build_internet(scale);
  const CoreNetworks nets = build_core_networks(scale, internet);

  // One series per sweep point; rows follow series order for any --jobs.
  std::vector<QualitySeriesSpec> series;
  const auto point = [&](const char* label, ctrl::AlgorithmKind algorithm,
                         std::size_t dissemination, int minutes) {
    ctrl::BeaconingSimConfig config = quality_beaconing_config(
        algorithm, scale.quality_duration, scale.seed);
    config.server.dissemination_limit = dissemination;
    config.server.interval = util::Duration::minutes(minutes);
    series.push_back({label, config});
  };
  for (const std::size_t limit : {1u, 5u, 10u}) {
    for (const auto algorithm : {ctrl::AlgorithmKind::kBaseline,
                                 ctrl::AlgorithmKind::kDiversity}) {
      char label[64];
      std::snprintf(label, sizeof label, "%s limit=%zu",
                    ctrl::to_string(algorithm), static_cast<size_t>(limit));
      point(label, algorithm, limit, 10);
    }
  }
  for (const int minutes : {5, 20}) {
    for (const auto algorithm : {ctrl::AlgorithmKind::kBaseline,
                                 ctrl::AlgorithmKind::kDiversity}) {
      char label[64];
      std::snprintf(label, sizeof label, "%s interval=%dm",
                    ctrl::to_string(algorithm), minutes);
      point(label, algorithm, 5, minutes);
    }
  }
  util::Rng rng{scale.seed ^ 0x5EEB};
  const QualityResult result = run_path_quality(
      nets.scion_view, nets.scion_view,
      draw_pairs(rng, nets.scion_view.as_count(), scale.sampled_pairs / 2),
      series);

  const obs::Table table = sweep_table(result);
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
  return scion::exp::bench_main("ablation_sweeps", argc, argv,
                                scion::exp::run);
}
