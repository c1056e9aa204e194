// Fig. 8 (Appendix B): maximum capacity between SCIONLab core AS pairs in
// multiples of inter-AS links (CDF), same series as Fig. 7.
#include "bench/bench_common.hpp"
#include "experiments/scionlab_experiment.hpp"

namespace scion::exp {
namespace {

void run(const util::Flags&, const Scale& scale, BenchReport& report) {
  const ScionLabResult result = run_scionlab_experiment(scale);
  obs::print_line("\nFig. 8 — maximum capacity (SCIONLab testbed)");
  print_capacity(result.quality);
  report.table(capacity_table(result.quality));
  for (const QualitySeries& s : result.quality.series) {
    report.scalar("opt_frac:" + s.name, result.quality.fraction_of_optimal(s));
  }
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("fig8_scionlab_capacity", argc, argv,
                                scion::exp::run);
}
