#include "experiments/quality_experiment.hpp"

#include <iterator>

#include "analysis/path_quality.hpp"
#include "exec/task_pool.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "util/stats.hpp"

namespace scion::exp {

double QualityResult::fraction_of_optimal(const QualitySeries& s) const {
  double sum = 0, opt = 0;
  for (std::size_t i = 0; i < s.values.size(); ++i) {
    sum += s.values[i];
    opt += optimum[i];
  }
  return opt > 0 ? sum / opt : 0.0;
}

QualityResult run_path_quality(const topo::Topology& bgp_view,
                               const topo::Topology& scion_view, AsPairs pairs,
                               const std::vector<QualitySeriesSpec>& series,
                               std::size_t jobs) {
  QualityResult result;
  result.pairs = std::move(pairs);
  analysis::QualityEvaluator evaluator{scion_view};
  {
    // Serial on the calling thread, so the phase counts the same
    // allocations at every job count.
    obs::ProfilePhase phase{"quality.optimum"};
    result.optimum.reserve(result.pairs.size());
    for (const auto& [s, t] : result.pairs) {
      result.optimum.push_back(evaluator.optimal(s, t));
    }
  }

  // Scores every pair on the paths `paths_of(s, t)` returns. of_paths is
  // const and thread-safe, so the tasks share `evaluator`.
  const auto score = [&](QualitySeries& out, const auto& paths_of) {
    out.values.reserve(result.pairs.size());
    for (const auto& [s, t] : result.pairs) {
      const std::vector<std::vector<topo::LinkIndex>> paths = paths_of(s, t);
      out.paths += paths.size();
      out.values.push_back(evaluator.of_paths(paths, s, t));
    }
  };
  result.series = exec::parallel_map(
      series,
      [&](const QualitySeriesSpec& spec) {
        QualitySeries out;
        out.name = spec.name;
        if (const auto* config = std::get_if<bgp::BgpSimConfig>(&spec.sim)) {
          obs::ProfilePhase phase{"quality.bgp"};
          bgp::BgpSim sim{bgp_view, *config};
          sim.run();
          score(out, [&sim](topo::AsIndex s, topo::AsIndex t) {
            auto paths = sim.bgp_link_paths(s, t);
            auto reverse = sim.bgp_link_paths(t, s);
            paths.insert(paths.end(), std::make_move_iterator(reverse.begin()),
                         std::make_move_iterator(reverse.end()));
            return paths;
          });
          return out;
        }
        obs::ProfilePhase phase{"quality.beaconing"};
        ctrl::BeaconingSim sim{scion_view,
                               std::get<ctrl::BeaconingSimConfig>(spec.sim)};
        sim.run();
        score(out, [&sim](topo::AsIndex s, topo::AsIndex t) {
          return sim.paths_between(s, t);
        });
        out.bytes = sim.total_bytes();
        out.pcbs = sim.total_pcbs_sent();
        return out;
      },
      jobs);
  return result;
}

ctrl::BeaconingSimConfig quality_beaconing_config(ctrl::AlgorithmKind algorithm,
                                                  util::Duration duration,
                                                  std::uint64_t seed) {
  ctrl::BeaconingSimConfig c;
  c.server.algorithm = algorithm;
  c.server.compute_crypto = false;
  if (algorithm == ctrl::AlgorithmKind::kDiversity) {
    c.server.store_policy = ctrl::StorePolicy::kDiversityAware;
  }
  c.sim_duration = duration;
  c.seed = seed;
  return c;
}

QualityResult run_quality_experiment(const topo::Topology& bgp_view,
                                     const topo::Topology& scion_view,
                                     const QualityConfig& config) {
  std::vector<QualitySeriesSpec> series;
  const auto add_beaconing = [&](const std::string& name,
                                 ctrl::AlgorithmKind algorithm,
                                 std::size_t limit) {
    ctrl::BeaconingSimConfig c =
        quality_beaconing_config(algorithm, config.sim_duration, config.seed);
    c.server.storage_limit = limit;
    series.push_back(
        {name + " (" + (limit == 0 ? "inf" : std::to_string(limit)) + ")", c});
  };
  for (const std::size_t limit : config.baseline_storage_limits) {
    add_beaconing("SCION Baseline", ctrl::AlgorithmKind::kBaseline, limit);
  }
  for (const std::size_t limit : config.diversity_storage_limits) {
    add_beaconing("SCION Diversity", ctrl::AlgorithmKind::kDiversity, limit);
  }
  if (config.include_bgp) {
    bgp::BgpSimConfig bc;
    bc.seed = config.seed;
    // Only convergence matters for path quality; skip churn.
    bc.churn_window = util::Duration::minutes(5);
    bc.flaps_per_adjacency_per_day = 0.0;
    series.push_back({"BGP (multipath)", bc});
  }
  util::Rng rng{config.seed ^ 0xFACE};
  return run_path_quality(
      bgp_view, scion_view,
      sample_distinct_pairs(rng, scion_view.as_count(), config.sampled_pairs),
      series, config.jobs);
}

obs::Table resilience_table(const QualityResult& r, int max_optimum) {
  std::vector<obs::Column> columns{obs::Column{"optimum", obs::Align::kLeft, 10},
                                   obs::Column{"#pairs", obs::Align::kRight, 8}};
  for (const QualitySeries& s : r.series) {
    columns.push_back(obs::Column{s.name, obs::Align::kRight, 22});
  }
  obs::Table t{"Resilience: average min #failing links disconnecting a pair, "
               "grouped by the pair's optimum",
               columns};
  for (int v = 1; v <= max_optimum; ++v) {
    std::size_t count = 0;
    std::vector<double> sums(r.series.size(), 0.0);
    for (std::size_t i = 0; i < r.pairs.size(); ++i) {
      if (r.optimum[i] != v) continue;
      ++count;
      for (std::size_t k = 0; k < r.series.size(); ++k) {
        sums[k] += r.series[k].values[i];
      }
    }
    if (count == 0) continue;
    std::vector<std::string> cells{std::to_string(v), obs::fmt_u64(count)};
    for (const double sum : sums) {
      cells.push_back(obs::fmt_f(sum / static_cast<double>(count), 2));
    }
    t.row(cells);
  }
  return t;
}

void print_resilience(const QualityResult& r, int max_optimum) {
  obs::print_line("");
  obs::print(resilience_table(r, max_optimum).to_text());
}

obs::Table capacity_table(const QualityResult& r) {
  obs::Table t{"Capacity in multiples of inter-AS links (CDF over pairs)",
               {obs::Column{"Series", obs::Align::kLeft, 28},
                obs::Column{"Distribution", obs::Align::kLeft, 36},
                obs::Column{"Fraction of optimal", obs::Align::kRight, 19}}};
  for (const QualitySeries& s : r.series) {
    util::EmpiricalCdf cdf;
    for (const int v : s.values) cdf.add(v);
    t.row({s.name, cdf.summary(), obs::fmt_f(r.fraction_of_optimal(s), 3)});
  }
  util::EmpiricalCdf optimum_cdf;
  for (const int v : r.optimum) optimum_cdf.add(v);
  t.row({"All Paths (optimum)", optimum_cdf.summary(), ""});
  return t;
}

void print_capacity(const QualityResult& r) {
  obs::print_line("");
  obs::print(capacity_table(r).to_text());
}

}  // namespace scion::exp
