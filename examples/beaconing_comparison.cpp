// The paper's headline result in miniature: run the baseline and the
// path-diversity-based path construction algorithms on the same core
// network and compare (a) control-plane overhead and (b) failure resilience
// of the disseminated paths against the optimum.
//
//   ./examples/beaconing_comparison [--core-ases=N] [--minutes=M]
#include <cstdio>

#include "experiments/quality_experiment.hpp"
#include "util/flags.hpp"

using namespace scion;

namespace {

constexpr const char* kProgram = "beaconing_comparison";

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

  util::Rng rng{scale.seed ^ 0xC0FFEE};
  const exp::QualityResult r = exp::run_path_quality(
      nets.scion_view, nets.scion_view,
      exp::draw_pairs(rng, nets.scion_view.as_count(), 60),
      {{"baseline", exp::quality_beaconing_config(
                        ctrl::AlgorithmKind::kBaseline, duration, scale.seed)},
       {"diversity", exp::quality_beaconing_config(
                         ctrl::AlgorithmKind::kDiversity, duration,
                         scale.seed)}});
  const exp::QualitySeries& baseline = r.series[0];
  const exp::QualitySeries& diversity = r.series[1];
  const auto per_pair = [&r](std::uint64_t paths) {
    return static_cast<double>(paths) / static_cast<double>(r.pairs.size());
  };

  std::printf("%-26s %16s %16s\n", "", "baseline", "diversity-based");
  std::printf("%-26s %16llu %16llu\n", "PCBs sent",
              static_cast<unsigned long long>(baseline.pcbs),
              static_cast<unsigned long long>(diversity.pcbs));
  std::printf("%-26s %16llu %16llu\n", "control-plane bytes",
              static_cast<unsigned long long>(baseline.bytes.value()),
              static_cast<unsigned long long>(diversity.bytes.value()));
  std::printf("%-26s %16.1f %16.1f\n", "paths stored per pair",
              per_pair(baseline.paths), per_pair(diversity.paths));
  std::printf("%-26s %15.1f%% %15.1f%%\n", "capacity vs optimal",
              100 * r.fraction_of_optimal(baseline),
              100 * r.fraction_of_optimal(diversity));
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
