// Fitting the diversity algorithm's parameters for a topology, as Section
// 4.2 prescribes: a coarse grid search with exponentially spaced values for
// alpha / beta / gamma, followed by a linear refinement around the winner.
//
//   ./examples/diversity_tuning [--core-ases=N] [--pairs=P]
#include <cstdio>

#include "experiments/grid_search.hpp"
#include "experiments/scale.hpp"
#include "util/flags.hpp"

using namespace scion;

namespace {

constexpr const char* kProgram = "diversity_tuning";

int tune(const util::Flags& flags) {
  exp::Scale scale = exp::Scale::from_flags(flags);
  // Grid search evaluates dozens of points; keep each run small.
  scale.core_ases =
      static_cast<std::size_t>(flags.get_int("core-ases", 24));
  scale.internet_ases = std::max<std::size_t>(scale.internet_ases, 300);
  exp::GridSearchConfig config;
  config.sim_duration = util::Duration::minutes(
      flags.get_int("minutes", 90));
  config.sampled_pairs =
      static_cast<std::size_t>(flags.get_int("pairs", 40));
  config.seed = scale.seed;
  if (const int status = util::reject_unused(flags, kProgram); status != 0) {
    return status;
  }

  const topo::Topology internet = exp::build_internet(scale);
  const exp::CoreNetworks nets = exp::build_core_networks(scale, internet);
  std::printf("tuning on a %zu-AS core network (%zu links)\n",
              nets.scion_view.as_count(), nets.scion_view.link_count());

  const exp::GridSearchResult result =
      exp::grid_search_diversity_params(nets.scion_view, config);

  std::printf("\nevaluated %zu parameter points "
              "(baseline reference: %llu bytes)\n",
              result.evaluated.size(),
              static_cast<unsigned long long>(result.baseline_bytes.value()));
  std::printf("  %-7s %-7s %-7s %10s %12s %10s\n", "alpha", "beta", "gamma",
              "quality", "overhead", "objective");
  for (const exp::EvaluatedPoint& p : result.evaluated) {
    std::printf("  %-7.2f %-7.2f %-7.2f %10.3f %12.4f %10.3f\n",
                p.params.alpha, p.params.beta, p.params.gamma, p.quality,
                p.overhead, p.objective);
  }
  std::printf("\nbest: alpha=%.2f beta=%.2f gamma=%.2f  "
              "(quality %.3f at %.2f%% of baseline overhead)\n",
              result.best.params.alpha, result.best.params.beta,
              result.best.params.gamma, result.best.quality,
              100.0 * result.best.overhead);
  return 0;
}

}  // namespace

// A malformed value or a flag nothing reads exits 2 before anything runs.
int main(int argc, char** argv) {
  try {
    return tune(util::Flags{argc, argv});
  } catch (const util::FlagError& e) {
    std::fprintf(stderr, "%s: %s\n", kProgram, e.what());
    return 2;
  }
}
