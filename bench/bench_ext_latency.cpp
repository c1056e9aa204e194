// Extension bench (Section 4.2, "Optimizing for other Criteria"): the
// paper leaves multi-criteria optimization as future work but sketches the
// ingredients — disseminating measured latency through PCBs and letting
// path construction optimize for it. This bench implements that sketch:
// the diversity algorithm with and without the latency extension, reporting
// (a) the metadata's wire-size cost and (b) the latency of the disseminated
// paths endpoints end up with.
#include <vector>

#include "bench/bench_common.hpp"
#include "core/beaconing_sim.hpp"
#include "util/stats.hpp"

namespace scion::exp {
namespace {

struct LatencyRunResult {
  std::string name;
  util::Bytes bytes{};
  /// Mean over sampled pairs of the best (lowest) disseminated path
  /// latency, in milliseconds, estimated from the PCB metadata.
  double mean_best_latency_ms{0.0};
  double mean_path_latency_ms{0.0};
};

LatencyRunResult run_variant(const std::string& name,
                             const topo::Topology& scion_view,
                             double latency_weight, bool carry_metadata,
                             const Scale& scale) {
  ctrl::BeaconingSimConfig config;
  config.server.algorithm = ctrl::AlgorithmKind::kDiversity;
  config.server.store_policy = ctrl::StorePolicy::kDiversityAware;
  config.server.compute_crypto = false;
  config.server.include_latency_metadata = carry_metadata;
  config.server.diversity.latency_weight = latency_weight;
  config.sim_duration = scale.quality_duration;
  config.seed = scale.seed;
  ctrl::BeaconingSim sim{scion_view, config};
  sim.run();

  LatencyRunResult result;
  result.name = name;
  result.bytes = sim.total_bytes();

  util::Rng rng{scale.seed ^ 0x1A7E};
  util::OnlineStats best_latency, all_latency;
  for (std::size_t i = 0; i < scale.sampled_pairs; ++i) {
    const auto a = static_cast<topo::AsIndex>(rng.index(scion_view.as_count()));
    const auto b = static_cast<topo::AsIndex>(rng.index(scion_view.as_count()));
    if (a == b) continue;
    double best = -1.0;
    for (const ctrl::StoredPcb& stored :
         sim.server(a).store().for_origin(scion_view.as_id(b))) {
      const double ms =
          static_cast<double>(stored.pcb->total_latency_us()) / 1000.0;
      all_latency.add(ms);
      if (best < 0 || ms < best) best = ms;
    }
    if (best >= 0) best_latency.add(best);
  }
  result.mean_best_latency_ms = best_latency.mean();
  result.mean_path_latency_ms = all_latency.mean();
  return result;
}

obs::Table latency_table(const std::vector<LatencyRunResult>& results) {
  obs::Table t{"Latency-optimization extension (Section 4.2 future work)",
               {obs::Column{"variant", obs::Align::kLeft, 28},
                obs::Column{"bytes", obs::Align::kRight, 14},
                obs::Column{"best path (ms)", obs::Align::kRight, 18},
                obs::Column{"all paths (ms)", obs::Align::kRight, 18}}};
  for (const auto& r : results) {
    t.row({r.name, obs::fmt_u64(r.bytes.value()), obs::fmt_f(r.mean_best_latency_ms, 2),
           obs::fmt_f(r.mean_path_latency_ms, 2)});
  }
  return t;
}

double metadata_cost_percent(const std::vector<LatencyRunResult>& results) {
  return 100.0 * (static_cast<double>(results[0].bytes.value()) /
                      static_cast<double>(results[2].bytes.value()) -
                  1.0);
}

double latency_shift_ms(const std::vector<LatencyRunResult>& results) {
  return results[1].mean_path_latency_ms - results[0].mean_path_latency_ms;
}

void run(const util::Flags&, const Scale& scale, BenchReport& report) {
  const topo::Topology internet = build_internet(scale);
  const CoreNetworks nets = build_core_networks(scale, internet);
  // Metadata carried in both runs so path latencies are observable; the
  // weight toggles whether selection *optimizes* for it.
  const std::vector<LatencyRunResult> results{
      run_variant("diversity (latency-blind)", nets.scion_view, 0.0, true,
                  scale),
      run_variant("diversity + latency opt", nets.scion_view, 1.0, true,
                  scale),
      run_variant("diversity, no metadata", nets.scion_view, 0.0, false,
                  scale)};

  const obs::Table table = latency_table(results);
  const double metadata_cost = metadata_cost_percent(results);
  const double latency_shift = latency_shift_ms(results);
  obs::print_line("");
  obs::print(table.to_text());
  obs::print_line("\n  metadata wire cost: " + obs::fmt_f(metadata_cost, 2) +
                  "% bytes; latency-aware selection shifts the disseminated "
                  "set by " +
                  obs::fmt_f(latency_shift, 1) + " ms on average");
  report.table(table);
  report.scalar("metadata_cost_percent", metadata_cost);
  report.scalar("latency_shift_ms", latency_shift);
}

}  // namespace
}  // namespace scion::exp

int main(int argc, char** argv) {
  return scion::exp::bench_main("ext_latency", argc, argv, scion::exp::run);
}
