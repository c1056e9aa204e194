// Parameter sweeps around the evaluation's fixed choices (Section 5.1):
// dissemination limit (paper: 5) and beaconing interval (paper: 10 min),
// for both algorithms, reporting overhead and capacity quality. These
// quantify the overhead/quality trade-off the fixed parameters sit on.
#include <cstdio>
#include <vector>

#include "analysis/path_quality.hpp"
#include "bench/bench_common.hpp"
#include "core/beaconing_sim.hpp"
#include "exec/task_pool.hpp"
// (<cstdio> stays for the snprintf label formatting in the sweep loops.)

namespace scion::exp {
namespace {

struct SweepRow {
  std::string label;
  util::Bytes bytes{};
  double fraction_of_optimal{0.0};
};

SweepRow run_point(const std::string& label, const topo::Topology& scion_view,
                   ctrl::AlgorithmKind algorithm, std::size_t dissemination,
                   util::Duration interval, const Scale& scale) {
  ctrl::BeaconingSimConfig config;
  config.server.algorithm = algorithm;
  config.server.dissemination_limit = dissemination;
  config.server.interval = interval;
  config.server.compute_crypto = false;
  if (algorithm == ctrl::AlgorithmKind::kDiversity) {
    config.server.store_policy = ctrl::StorePolicy::kDiversityAware;
  }
  config.sim_duration = scale.quality_duration;
  config.seed = scale.seed;
  ctrl::BeaconingSim sim{scion_view, config};
  sim.run();

  analysis::QualityEvaluator evaluator{scion_view};
  util::Rng rng{scale.seed ^ 0x5EEB};
  double achieved = 0, optimal = 0;
  for (std::size_t i = 0; i < scale.sampled_pairs / 2; ++i) {
    const auto a = static_cast<topo::AsIndex>(rng.index(scion_view.as_count()));
    const auto b = static_cast<topo::AsIndex>(rng.index(scion_view.as_count()));
    if (a == b) continue;
    auto paths = sim.paths_at(a, scion_view.as_id(b));
    auto reverse = sim.paths_at(b, scion_view.as_id(a));
    paths.insert(paths.end(), reverse.begin(), reverse.end());
    achieved += evaluator.of_paths(paths, a, b);
    optimal += evaluator.optimal(a, b);
  }
  return SweepRow{label, sim.total_bytes(),
                  optimal > 0 ? achieved / optimal : 0};
}

/// One sweep point (its own simulator, evaluator, and rng — independent of
/// every other point, so the sweep fans out over the task pool).
struct PointSpec {
  std::string label;
  ctrl::AlgorithmKind algorithm{ctrl::AlgorithmKind::kBaseline};
  std::size_t dissemination{5};
  util::Duration interval{util::Duration::minutes(10)};
};

obs::Table sweep_table(const std::vector<SweepRow>& rows) {
  obs::Table t{"Dissemination-limit and interval sweeps",
               {obs::Column{"configuration", obs::Align::kLeft, 28},
                obs::Column{"bytes", obs::Align::kRight, 14},
                obs::Column{"capacity/optimal", obs::Align::kRight, 18}}};
  for (const auto& r : rows) {
    t.row({r.label, obs::fmt_u64(r.bytes.value()),
           obs::fmt_f(r.fraction_of_optimal, 3)});
  }
  return t;
}

void run(const util::Flags&, const Scale& base, BenchReport& report) {
  Scale scale = base;
  // Sweeps multiply runs; shrink the base topology a bit.
  scale.core_ases = std::min<std::size_t>(scale.core_ases, 48);
  const topo::Topology internet = build_internet(scale);
  const CoreNetworks nets = build_core_networks(scale, internet);

  std::vector<PointSpec> specs;
  for (const std::size_t limit : {1u, 5u, 10u}) {
    for (const auto algorithm : {ctrl::AlgorithmKind::kBaseline,
                                 ctrl::AlgorithmKind::kDiversity}) {
      char label[64];
      std::snprintf(label, sizeof label, "%s limit=%zu",
                    ctrl::to_string(algorithm), static_cast<size_t>(limit));
      specs.push_back({label, algorithm, limit, util::Duration::minutes(10)});
    }
  }
  for (const int minutes : {5, 20}) {
    for (const auto algorithm : {ctrl::AlgorithmKind::kBaseline,
                                 ctrl::AlgorithmKind::kDiversity}) {
      char label[64];
      std::snprintf(label, sizeof label, "%s interval=%dm",
                    ctrl::to_string(algorithm), minutes);
      specs.push_back({label, algorithm, 5, util::Duration::minutes(minutes)});
    }
  }
  // Honors --jobs via exec::default_jobs(); row order follows spec order
  // regardless of the worker count.
  const std::vector<SweepRow> rows =
      exec::parallel_map(specs, [&](const PointSpec& spec) {
        return run_point(spec.label, nets.scion_view, spec.algorithm,
                         spec.dissemination, spec.interval, scale);
      });

  const obs::Table table = sweep_table(rows);
  obs::print_line("");
  obs::print(table.to_text());
  report.table(table);
  for (const auto& r : rows) {
    report.scalar("capacity_of_optimal:" + r.label, r.fraction_of_optimal);
    report.scalar("bytes:" + r.label, static_cast<double>(r.bytes.value()));
  }
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("ablation_sweeps", argc, argv,
                                scion::exp::run);
}
