// Leased-line replacement with multi-path fast failover — the deployment
// use case of Section 3.1: a bank connects N branches to K data centers
// over SCION instead of N*K leased lines, and link failures are masked by
// immediately switching to an alternative path (SCMP revocation -> path
// manager failover) instead of waiting for routing to reconverge.
//
//   ./examples/leased_line_failover
//
// The example resolves multi-path sets for every branch/data-center pair,
// then injects link failures and measures how many pairs survive each
// failure without losing connectivity, and how often failover was needed.
#include <cstdio>
#include <map>
#include <vector>

#include "scion/control_plane_sim.hpp"
#include "topology/generator.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

using namespace scion;

int main(int argc, char** argv) {
  // The example takes no flags: any argument is a mistake (exit 2).
  const int usage =
      util::reject_unused(util::Flags{argc, argv}, "leased_line_failover");
  if (usage != 0) return usage;

  // One ISD per region; branches and data centers are leaf ASes.
  topo::MultiIsdConfig topology_config;
  topology_config.n_isds = 2;
  topology_config.cores_per_isd = 3;
  topology_config.ases_per_isd = 14;
  topology_config.seed = 77;
  const topo::Topology world = topo::generate_multi_isd(topology_config);

  svc::ControlPlaneSimConfig config;
  config.sim_duration = util::Duration::minutes(30);
  config.lookups_per_second = 0.0;
  config.link_failures_per_hour = 0.0;
  svc::ControlPlaneSim control_plane{world, config};
  control_plane.run();

  // Pick branches (first ISD) and data centers (second ISD).
  std::vector<topo::AsIndex> branches, data_centers;
  for (const topo::AsIndex leaf : control_plane.leaves()) {
    if (world.as_id(leaf).isd() == topo::IsdId{1} && branches.size() < 4) {
      branches.push_back(leaf);
    } else if (world.as_id(leaf).isd() == topo::IsdId{2} && data_centers.size() < 2) {
      data_centers.push_back(leaf);
    }
  }
  std::printf("connecting %zu branches to %zu data centers "
              "(%zu SCION attachments replace %zu leased lines)\n",
              branches.size(), data_centers.size(),
              branches.size() + data_centers.size(),
              branches.size() * data_centers.size());

  // Each branch/DC pair gets a PathManager with its multi-path set.
  std::map<std::pair<topo::AsIndex, topo::AsIndex>, svc::PathManager> flows;
  for (const topo::AsIndex branch : branches) {
    for (const topo::AsIndex dc : data_centers) {
      auto paths = control_plane.resolve_paths(branch, dc);
      flows[{branch, dc}].set_paths(std::move(paths));
    }
  }
  std::size_t multi_path_pairs = 0;
  for (const auto& [pair, manager] : flows) {
    std::printf("  %s -> %s: %zu paths\n",
                world.as_id(pair.first).to_string().c_str(),
                world.as_id(pair.second).to_string().c_str(),
                manager.total_paths());
    multi_path_pairs += manager.total_paths() >= 2;
  }

  // Failure drill: fail random links one after another (no repair) and
  // watch connectivity. A pair survives as long as one path avoids all
  // failed links; failover is immediate upon the SCMP revocation.
  util::Rng rng{99};
  std::size_t failures = 0;
  std::size_t failover_events = 0;
  std::printf("\nfailure drill (cumulative link failures):\n");
  for (int round = 0; round < 8; ++round) {
    // Fail a random currently-up link.
    topo::LinkIndex victim = topo::kInvalidLinkIndex;
    for (int attempt = 0; attempt < 32; ++attempt) {
      const auto l =
          static_cast<topo::LinkIndex>(rng.index(world.link_count()));
      if (control_plane.link_up(l)) {
        victim = l;
        break;
      }
    }
    if (victim == topo::kInvalidLinkIndex) break;
    control_plane.fail_link(victim, util::Duration::hours(24));
    ++failures;

    std::size_t connected = 0;
    for (auto& [pair, manager] : flows) {
      const std::uint64_t before = manager.failovers();
      manager.notify_revocation(victim);  // SCMP fan-out
      failover_events += manager.failovers() - before;
      connected += manager.active() != nullptr;
    }
    std::printf("  after %zu failures: %zu/%zu pairs connected "
                "(link %s-%s down)\n",
                failures, connected, flows.size(),
                world.as_id(world.link(victim).a).to_string().c_str(),
                world.as_id(world.link(victim).b).to_string().c_str());
  }

  std::printf("\n%zu/%zu pairs had native multi-path; %zu fast failovers "
              "performed, zero reconvergence waits\n",
              multi_path_pairs, flows.size(), failover_events);

  // Sanity: every still-active path must actually forward end to end over
  // the surviving links.
  for (auto& [pair, manager] : flows) {
    const svc::EndToEndPath* active = manager.active();
    if (active == nullptr) continue;
    const svc::ForwardResult result = control_plane.dataplane().forward(
        *active, [&](topo::LinkIndex l) { return control_plane.link_up(l); });
    if (!result.delivered) {
      std::printf("BUG: active path for %s -> %s does not forward: %s\n",
                  world.as_id(pair.first).to_string().c_str(),
                  world.as_id(pair.second).to_string().c_str(),
                  result.error.c_str());
      return 1;
    }
  }
  std::printf("all active paths verified end-to-end on the data plane\n");
  return 0;
}
