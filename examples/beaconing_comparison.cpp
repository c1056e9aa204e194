// The paper's headline result in miniature: run the baseline and the
// path-diversity-based path construction algorithms on the same core
// network and compare (a) control-plane overhead and (b) failure resilience
// of the disseminated paths against the optimum.
//
//   ./examples/beaconing_comparison [--core-ases=N] [--minutes=M]
#include <cstdio>

#include "analysis/path_quality.hpp"
#include "core/beaconing_sim.hpp"
#include "experiments/scale.hpp"
#include "util/flags.hpp"

using namespace scion;

namespace {

constexpr const char* kProgram = "beaconing_comparison";

struct RunSummary {
  util::Bytes bytes{};
  std::uint64_t pcbs{0};
  double avg_paths_per_pair{0.0};
  double capacity_fraction{0.0};
};

RunSummary run(const topo::Topology& core, ctrl::AlgorithmKind algorithm,
               util::Duration duration, std::uint64_t seed) {
  ctrl::BeaconingSimConfig config;
  config.server.algorithm = algorithm;
  config.server.compute_crypto = false;
  if (algorithm == ctrl::AlgorithmKind::kDiversity) {
    config.server.store_policy = ctrl::StorePolicy::kDiversityAware;
  }
  config.sim_duration = duration;
  config.seed = seed;
  ctrl::BeaconingSim sim{core, config};
  sim.run();

  RunSummary summary;
  summary.bytes = sim.total_bytes();
  summary.pcbs = sim.total_pcbs_sent();

  analysis::QualityEvaluator evaluator{core};
  util::Rng rng{seed ^ 0xC0FFEE};
  double achieved = 0, optimal = 0, paths = 0;
  const std::size_t pairs = 60;
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto a = static_cast<topo::AsIndex>(rng.index(core.as_count()));
    const auto b = static_cast<topo::AsIndex>(rng.index(core.as_count()));
    if (a == b) continue;
    auto fwd = sim.paths_at(a, core.as_id(b));
    auto rev = sim.paths_at(b, core.as_id(a));
    paths += static_cast<double>(fwd.size() + rev.size());
    fwd.insert(fwd.end(), rev.begin(), rev.end());
    achieved += evaluator.of_paths(fwd, a, b);
    optimal += evaluator.optimal(a, b);
  }
  summary.avg_paths_per_pair = paths / static_cast<double>(pairs);
  summary.capacity_fraction = optimal > 0 ? achieved / optimal : 0;
  return summary;
}

int compare(const util::Flags& flags) {
  exp::Scale scale = exp::Scale::from_flags(flags);
  scale.core_ases = static_cast<std::size_t>(
      flags.get_int("core-ases", static_cast<std::int64_t>(scale.core_ases)));
  const auto duration = util::Duration::minutes(flags.get_int(
      "minutes", static_cast<std::int64_t>(scale.quality_duration.as_minutes())));
  if (const int status = util::reject_unused(flags, kProgram); status != 0) {
    return status;
  }

  const topo::Topology internet = exp::build_internet(scale);
  const exp::CoreNetworks nets = exp::build_core_networks(scale, internet);
  std::printf("core network: %zu core ASes, %zu inter-AS links, %s of "
              "simulated beaconing\n\n",
              nets.scion_view.as_count(), nets.scion_view.link_count(),
              duration.to_string().c_str());

  const RunSummary baseline =
      run(nets.scion_view, ctrl::AlgorithmKind::kBaseline, duration, scale.seed);
  const RunSummary diversity = run(nets.scion_view,
                                   ctrl::AlgorithmKind::kDiversity, duration,
                                   scale.seed);

  std::printf("%-26s %16s %16s\n", "", "baseline", "diversity-based");
  std::printf("%-26s %16llu %16llu\n", "PCBs sent",
              static_cast<unsigned long long>(baseline.pcbs),
              static_cast<unsigned long long>(diversity.pcbs));
  std::printf("%-26s %16llu %16llu\n", "control-plane bytes",
              static_cast<unsigned long long>(baseline.bytes.value()),
              static_cast<unsigned long long>(diversity.bytes.value()));
  std::printf("%-26s %16.1f %16.1f\n", "paths stored per pair",
              baseline.avg_paths_per_pair, diversity.avg_paths_per_pair);
  std::printf("%-26s %15.1f%% %15.1f%%\n", "capacity vs optimal",
              100 * baseline.capacity_fraction,
              100 * diversity.capacity_fraction);
  std::printf("\noverhead reduction: %.1fx fewer bytes with the "
              "path-diversity-based algorithm\n",
              static_cast<double>(baseline.bytes.value()) /
                  static_cast<double>(diversity.bytes.value()));
  return 0;
}

}  // namespace

// A malformed value or a flag nothing reads exits 2 before anything runs.
int main(int argc, char** argv) {
  try {
    return compare(util::Flags{argc, argv});
  } catch (const util::FlagError& e) {
    std::fprintf(stderr, "%s: %s\n", kProgram, e.what());
    return 2;
  }
}
