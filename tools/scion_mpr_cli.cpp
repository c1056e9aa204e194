// scion-mpr — command-line front end to the library.
//
//   scion-mpr gen      --kind=internet|core|isd|scionlab|multi-isd [--out=FILE]
//   scion-mpr beacon   --topology=FILE [--algorithm=baseline|diversity]
//                      [--hours=N] [--warmup-hours=N] [--faults=FILE]
//   scion-mpr quality  --topology=FILE [--pairs=N] [--hours=N] [--seed=N]
//   scion-mpr table1   [--isds=N] [--isd-size=N] [--minutes=N]
//
// Topologies are the plain-text format of topology/io.hpp, so generated
// networks can be inspected, edited, and replayed.
#include <algorithm>
#include <fstream>
#include <iostream>

#include "core/beaconing_sim.hpp"
#include "exec/task_pool.hpp"
#include "faults/fault_plan.hpp"
#include "experiments/quality_experiment.hpp"
#include "experiments/table1_experiment.hpp"
#include "obs/session.hpp"
#include "topology/io.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

using namespace scion;

namespace {

int usage() {
  std::cerr <<
      "usage: scion-mpr <gen|beacon|quality|table1> [--key=value ...]\n"
      "  gen      --kind=internet|core|isd|scionlab|multi-isd [--ases=N]\n"
      "           [--seed=N] [--out=FILE]\n"
      "  beacon   --topology=FILE [--algorithm=baseline|diversity]\n"
      "           [--hours=N] [--warmup-hours=N] [--storage=N] [--limit=N]\n"
      "           [--faults=FILE]  fault scenario (see src/faults/fault_plan.hpp)\n"
      "  quality  --topology=FILE [--pairs=N] [--hours=N] [--seed=N]\n"
      "  table1   [--isds=N] [--isd-size=N] [--minutes=N]\n"
      "execution (any command):\n"
      "  --jobs=N             worker threads for parallel experiment stages\n"
      "                       (default 1; results are identical for any N)\n"
      "telemetry (any command):\n"
      "  --metrics-out=FILE   write metrics + run manifest as JSON\n"
      "  --trace-out=FILE     stream structured events as JSONL\n"
      "  --trace-filter=CSV   categories to trace (default all:\n"
      "                       simnet,beacon,bgp,scion,sig,experiment,fault)\n";
  return 2;
}

topo::Topology load_topology(const util::Flags& flags) {
  const std::string path = flags.get("topology", "");
  if (path.empty()) throw std::runtime_error("--topology=FILE is required");
  std::ifstream in{path};
  if (!in) throw std::runtime_error("cannot open " + path);
  return topo::read_topology(in);
}

int cmd_gen(const util::Flags& flags) {
  const std::string kind = flags.get("kind", "multi-isd");
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  topo::Topology topology;
  if (kind == "internet") {
    topo::HierarchyConfig config;
    config.n_ases = static_cast<std::size_t>(flags.get_int("ases", 800));
    config.seed = seed;
    topology = topo::generate_hierarchy(config);
  } else if (kind == "core") {
    topo::HierarchyConfig config;
    config.n_ases = static_cast<std::size_t>(flags.get_int("ases", 800));
    config.seed = seed;
    topology = topo::with_all_core_links(topo::make_core_network(
        topo::generate_hierarchy(config),
        static_cast<std::size_t>(flags.get_int("cores", 64)),
        static_cast<std::size_t>(flags.get_int("isds", 8))));
  } else if (kind == "isd") {
    topo::IsdConfig config;
    config.n_ases = static_cast<std::size_t>(flags.get_int("ases", 300));
    config.n_cores = static_cast<std::size_t>(flags.get_int("cores", 11));
    config.seed = seed;
    topology = topo::generate_isd(config);
  } else if (kind == "scionlab") {
    topo::ScionLabConfig config;
    config.n_cores = static_cast<std::size_t>(flags.get_int("cores", 21));
    config.seed = seed;
    topology = topo::generate_scionlab(config);
  } else if (kind == "multi-isd") {
    topo::MultiIsdConfig config;
    config.n_isds = static_cast<std::size_t>(flags.get_int("isds", 3));
    config.ases_per_isd =
        static_cast<std::size_t>(flags.get_int("isd-size", 12));
    config.seed = seed;
    topology = topo::generate_multi_isd(config);
  } else {
    std::cerr << "unknown --kind=" << kind << "\n";
    return usage();
  }

  const std::string out = flags.get("out", "");
  if (out.empty()) {
    // stdout is the CLI's product (same standing as the obs renderer); the
    // simulation core itself stays obs-routed.
    topo::write_topology(std::cout, topology);  // simlint:allow(raw-output)
  } else {
    std::ofstream file{out};
    if (!file) throw std::runtime_error("cannot write " + out);
    topo::write_topology(file, topology);
    std::cout << "wrote " << topology.as_count()  // simlint:allow(raw-output)
              << " ASes, "
              << topology.link_count() << " links to " << out << "\n";
  }
  return 0;
}

int cmd_beacon(const util::Flags& flags) {
  ctrl::BeaconingSimConfig config;
  const std::string algorithm = flags.get("algorithm", "diversity");
  if (algorithm == "baseline") {
    config.server.algorithm = ctrl::AlgorithmKind::kBaseline;
  } else if (algorithm == "diversity") {
    config.server.algorithm = ctrl::AlgorithmKind::kDiversity;
    config.server.store_policy = ctrl::StorePolicy::kDiversityAware;
  } else {
    throw util::FlagError{"invalid value for --algorithm: " + algorithm};
  }
  const topo::Topology topology = load_topology(flags);
  config.server.storage_limit =
      static_cast<std::size_t>(flags.get_int("storage", 60));
  config.server.dissemination_limit =
      static_cast<std::size_t>(flags.get_int("limit", 5));
  config.server.compute_crypto = flags.get_bool("crypto", false);
  config.sim_duration = util::Duration::hours(flags.get_int("hours", 3));
  config.warmup = util::Duration::hours(flags.get_int("warmup-hours", 0));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const std::string faults_file = flags.get("faults", "");
  if (!faults_file.empty()) {
    std::string error;
    if (!faults::FaultPlan::parse_file(faults_file, &config.faults, &error)) {
      throw std::runtime_error(faults_file + ": " + error);
    }
  }

  ctrl::BeaconingSim sim{topology, config};
  sim.run();
  const auto agg = sim.aggregate_stats();
  // simlint:allow(raw-output) — the report is the CLI's product
  std::cout << "algorithm: " << to_string(config.server.algorithm) << "\n"
            << "simulated: " << config.sim_duration.to_string()
            << " (warm-up " << config.warmup.to_string() << ")\n"
            << "PCBs sent: " << agg.pcbs_sent << " ("
            << agg.pcbs_originated << " originations)\n"
            << "bytes on the wire: " << sim.total_bytes().value() << "\n";
  util::EmpiricalCdf per_interface;
  for (const ctrl::InterfaceUsage& usage : sim.interface_usage()) {
    per_interface.add(static_cast<double>(usage.bytes.value()) /
                      config.sim_duration.as_seconds());
  }
  // simlint:allow(raw-output)
  std::cout << "per-interface B/s: " << per_interface.summary() << "\n";
  if (sim.injector() != nullptr) {
    const faults::FaultInjectorStats fs = sim.injector()->stats();
    // simlint:allow(raw-output)
    std::cout << "faults: " << fs.link_down_events << " link-down, "
              << fs.node_down_events << " node-down, " << fs.flaps
              << " flaps; PCBs revoked: " << agg.pcbs_revoked << "\n";
  }
  return 0;
}

int cmd_quality(const util::Flags& flags) {
  const topo::Topology topology = load_topology(flags);
  const auto pairs = static_cast<std::size_t>(flags.get_int("pairs", 100));
  const auto hours = util::Duration::hours(flags.get_int("hours", 2));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  std::vector<exp::QualitySeriesSpec> series;
  for (const auto algorithm :
       {ctrl::AlgorithmKind::kBaseline, ctrl::AlgorithmKind::kDiversity}) {
    series.push_back({ctrl::to_string(algorithm),
                      exp::quality_beaconing_config(algorithm, hours, seed)});
  }
  util::Rng rng{seed ^ 8};
  const exp::QualityResult result = exp::run_path_quality(
      topology, topology, exp::draw_pairs(rng, topology.as_count(), pairs),
      series);
  // simlint:allow(raw-output) — the report is the CLI's product
  std::cout << "algorithm     capacity/optimal   bytes\n";
  for (const exp::QualitySeries& s : result.series) {
    // simlint:allow(raw-output)
    std::printf("%-13s %16.3f %9llu\n", s.name.c_str(),
                result.fraction_of_optimal(s),
                static_cast<unsigned long long>(s.bytes.value()));
  }
  return 0;
}

int cmd_table1(const util::Flags& flags) {
  exp::Table1Config config;
  config.topology.n_isds =
      static_cast<std::size_t>(flags.get_int("isds", 4));
  config.topology.ases_per_isd =
      static_cast<std::size_t>(flags.get_int("isd-size", 16));
  config.sim_duration = util::Duration::minutes(flags.get_int("minutes", 60));
  const exp::Table1Result result = exp::run_table1_experiment(config);
  exp::print_table1(result);
  return 0;
}

int run_command(const std::string& command, const util::Flags& flags) {
  if (command == "gen") return cmd_gen(flags);
  if (command == "beacon") return cmd_beacon(flags);
  if (command == "quality") return cmd_quality(flags);
  if (command == "table1") return cmd_table1(flags);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  // The flags follow the command word.
  const util::Flags flags{argc - 1, argv + 1};
  if (!flags.strays().empty()) return util::reject_unused(flags, "scion-mpr");
  try {
    exec::set_default_jobs(static_cast<std::size_t>(
        std::max<std::int64_t>(1, flags.get_int("jobs", 1))));
    obs::ObsSession session{
        "scion-mpr " + command, flags,
        static_cast<std::uint64_t>(flags.get_int("seed", 1))};
    const int status = run_command(command, flags);
    if (status != 0) return status;
    if (util::reject_unused(flags, "scion-mpr") != 0) return 2;
    return session.finish() ? 0 : 1;
  } catch (const util::FlagError& e) {
    std::cerr << "scion-mpr: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
