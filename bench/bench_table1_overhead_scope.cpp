// Table 1: path management overhead comparison. Runs the full SCION
// control plane (both beaconing levels, path servers, lookups,
// registrations, revocations) on a multi-ISD topology and prints the
// measured scope x frequency table.
#include "bench/bench_common.hpp"
#include "experiments/table1_experiment.hpp"

namespace scion::exp {
namespace {

Table1Config config_from_flags(const util::Flags& flags) {
  Table1Config config;
  config.topology.n_isds =
      static_cast<std::size_t>(flags.get_int("isds", 4));
  config.topology.cores_per_isd =
      static_cast<std::size_t>(flags.get_int("cores-per-isd", 3));
  config.topology.ases_per_isd =
      static_cast<std::size_t>(flags.get_int("isd-size", 16));
  config.sim_duration =
      util::Duration::minutes(flags.get_int("minutes", 60));
  config.lookups_per_second = flags.get_double("lookups-per-second", 2.0);
  config.link_failures_per_hour = flags.get_double("failures-per-hour", 4.0);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 5));
  return config;
}

void run(const util::Flags& flags, const Scale&, BenchReport& report) {
  const Table1Result result = run_table1_experiment(config_from_flags(flags));
  print_table1(result);
  report.table(result.ledger.table("SCION control-plane components",
                                   result.window, result.participants));
  report.scalar("lookups", static_cast<double>(result.lookups));
  report.scalar("paths_resolved", static_cast<double>(result.paths_resolved));
  report.scalar("total_bytes",
                static_cast<double>(result.ledger.total_bytes().value()));
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("table1_overhead_scope", argc, argv,
                                scion::exp::run);
}
