// Fig. 9 (Appendix B): CDF of core-beaconing bandwidth per interface on the
// SCIONLab testbed topology (baseline algorithm, full-size signed PCBs).
// Expected shape: the large majority of interfaces stay below 4 KB/s.
#include "bench/bench_common.hpp"
#include "experiments/scionlab_experiment.hpp"

namespace scion::exp {
namespace {

void run(const util::Flags&, const Scale& base, BenchReport& report) {
  Scale scale = base;
  // Fig. 9 only needs the bandwidth run; shrink the quality part.
  scale.sampled_pairs = std::min<std::size_t>(scale.sampled_pairs, 40);
  const ScionLabResult result = run_scionlab_experiment(scale);
  print_scionlab_bandwidth(result);
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
  return scion::exp::bench_main("fig9_scionlab_bandwidth", argc, argv,
                                scion::exp::run);
}
