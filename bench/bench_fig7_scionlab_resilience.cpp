// Fig. 7 (Appendix B): minimum number of failing links disconnecting two
// SCIONLab core ASes — diversity (storage 5/10/15/60) vs baseline (5, which
// models the deployed "Measurement" series) vs the optimum. Expected shape:
// diversity beats the deployed algorithm in a growing share of pairs as the
// storage limit rises, with little benefit beyond 15.
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
  obs::print_line("\nFig. 7 — link failure resilience (SCIONLab testbed)");
  print_resilience(result.quality, 6);
  print_beats_measurement(result.quality);
  report.table(resilience_table(result.quality, 6));
  for (const auto& [name, fraction] : beats_measurement(result.quality)) {
    report.scalar("beats_measurement:" + name, fraction);
  }
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("fig7_scionlab_resilience", argc, argv,
                                scion::exp::run);
}
