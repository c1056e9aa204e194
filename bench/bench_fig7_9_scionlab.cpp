// Figs. 7-9 (Appendix B), the SCIONLab testbed, from one
// run_scionlab_experiment call:
//  - Fig. 7: minimum number of failing links disconnecting two SCIONLab
//    core ASes — diversity (storage 5/10/15/60) vs baseline (5, which models
//    the deployed "Measurement" series) vs the optimum. Expected shape:
//    diversity beats the deployed algorithm in a growing share of pairs as
//    the storage limit rises, with little benefit beyond 15.
//  - Fig. 8: maximum capacity between the same pairs in multiples of
//    inter-AS links (CDF), same series.
//  - Fig. 9: CDF of core-beaconing bandwidth per interface (baseline
//    algorithm, full-size signed PCBs). Expected shape: the large majority
//    of interfaces stay below 4 KB/s.
#include "bench/bench_common.hpp"
#include "experiments/scionlab_experiment.hpp"

namespace scion::exp {
namespace {

/// Paper comparison: fraction of pairs where each diversity configuration
/// strictly beats the deployed (baseline-5) selection.
std::vector<std::pair<std::string, double>> beats_measurement(
    const QualityResult& r) {
  std::vector<std::pair<std::string, double>> out;
  const QualitySeries* measurement = nullptr;
  for (const QualitySeries& s : r.series) {
    if (s.name.find("Baseline (5)") != std::string::npos) measurement = &s;
  }
  if (measurement == nullptr) return out;
  for (const QualitySeries& s : r.series) {
    if (s.name.find("Diversity") == std::string::npos) continue;
    std::size_t better = 0;
    for (std::size_t i = 0; i < s.values.size(); ++i) {
      better += s.values[i] > measurement->values[i];
    }
    out.emplace_back(s.name, static_cast<double>(better) /
                                 static_cast<double>(s.values.size()));
  }
  return out;
}

void print_beats_measurement(const QualityResult& r) {
  const auto beats = beats_measurement(r);
  if (beats.empty()) return;
  obs::print_line("\n  fraction of pairs where diversity beats the deployed "
                  "selection:");
  for (const auto& [name, fraction] : beats) {
    std::string line = "    " + name;
    if (name.size() < 24) line.append(24 - name.size(), ' ');
    obs::print_line(line + " " + obs::fmt_f(fraction, 2));
  }
}

void run(const util::Flags&, const Scale& scale, BenchReport& report) {
  const ScionLabResult result = run_scionlab_experiment(scale);
  const QualityResult& quality = result.quality;
  obs::print_line("\nFig. 7 — link failure resilience (SCIONLab testbed)");
  print_resilience(quality, 6);
  print_beats_measurement(quality);
  obs::print_line("\nFig. 8 — maximum capacity (SCIONLab testbed)");
  print_capacity(quality);
  print_scionlab_bandwidth(result);

  report.table(resilience_table(quality, 6));
  report.table(capacity_table(quality));
  for (const auto& [name, fraction] : beats_measurement(quality)) {
    report.scalar("beats_measurement:" + name, fraction);
  }
  for (const QualitySeries& s : quality.series) {
    report.scalar("opt_frac:" + s.name, quality.fraction_of_optimal(s));
  }
  report.cdf("interface_bandwidth_Bps", result.bandwidth, 10);
  report.scalar("fraction_below_4kbps", result.fraction_below_4kbps);
  // median() on an empty CDF trips SCION_CHECK.
  if (!result.bandwidth.empty()) {
    report.scalar("median_Bps", result.bandwidth.median());
  }
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("fig7_9_scionlab", argc, argv,
                                scion::exp::run);
}
