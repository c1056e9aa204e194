// Quickstart: build the Figure-1 style SCION network (3 ISDs), run both
// levels of beaconing plus the path-server machinery, resolve end-to-end
// paths between two leaf ASes in different ISDs, and forward a packet.
//
//   ./examples/quickstart
//
// This walks the whole public API surface: topology generation, the
// control-plane simulation, on-demand path lookup, segment combination
// (up + core + down, shortcuts, peering), and data-plane verification.
#include <cstdio>

#include "scion/control_plane_sim.hpp"
#include "topology/generator.hpp"
#include "topology/io.hpp"
#include "util/flags.hpp"

using namespace scion;

int main(int argc, char** argv) {
  // The example takes no flags: any argument is a mistake (exit 2).
  const int usage =
      util::reject_unused(util::Flags{argc, argv}, "quickstart");
  if (usage != 0) return usage;

  // A small world shaped like the paper's Figure 1: three ISDs, each with
  // 2-3 core ASes and a customer hierarchy below them.
  topo::MultiIsdConfig topology_config;
  topology_config.n_isds = 3;
  topology_config.cores_per_isd = 2;
  topology_config.ases_per_isd = 8;
  topology_config.seed = 2026;
  const topo::Topology world = topo::generate_multi_isd(topology_config);

  std::printf("SCION network: %zu ASes, %zu inter-AS links\n",
              world.as_count(), world.link_count());

  // Run the control plane: core beaconing among the ISD cores, intra-ISD
  // beaconing down the customer hierarchies, registrations, path servers.
  svc::ControlPlaneSimConfig config;
  config.sim_duration = util::Duration::minutes(30);
  config.lookups_per_second = 0.0;     // we drive lookups ourselves below
  config.link_failures_per_hour = 0.0;
  svc::ControlPlaneSim control_plane{world, config};
  control_plane.run();

  // Pick two leaf ASes in different ISDs.
  const auto& leaves = control_plane.leaves();
  topo::AsIndex src = leaves.front();
  topo::AsIndex dst = src;
  for (const topo::AsIndex leaf : leaves) {
    if (world.as_id(leaf).isd() != world.as_id(src).isd()) {
      dst = leaf;
      break;
    }
  }
  std::printf("resolving paths %s -> %s\n",
              world.as_id(src).to_string().c_str(),
              world.as_id(dst).to_string().c_str());

  // Endpoint-visible path resolution: up-segments from the local path
  // server, core-/down-segments fetched (and cached) across the network.
  const std::vector<svc::EndToEndPath> paths =
      control_plane.resolve_paths(src, dst);
  std::printf("found %zu end-to-end paths:\n", paths.size());
  for (const svc::EndToEndPath& path : paths) {
    // Render hops with the interface used on each side, so parallel links
    // between the same AS pair are distinguishable.
    std::string rendered = world.as_id(path.ases[0]).to_string();
    for (std::size_t i = 0; i < path.links.size(); ++i) {
      const topo::LinkIndex l = path.links[i];
      char hop[64];
      std::snprintf(hop, sizeof hop, " %u>%u %s",
                    world.interface_of(l, path.ases[i]).value(),
                    world.interface_of(l, path.ases[i + 1]).value(),
                    world.as_id(path.ases[i + 1]).to_string().c_str());
      rendered += hop;
    }
    std::printf("  [%-12s] %zu hops, %3llu header bytes: %s\n",
                to_string(path.kind), path.length(),
                static_cast<unsigned long long>(
                    svc::packet_header_bytes(path).value()),
                rendered.c_str());
  }
  if (paths.empty()) {
    std::printf("no path found — beaconing has not converged?\n");
    return 1;
  }

  // Forward a packet along the best path, verifying every hop-field MAC.
  const svc::DataPlane& dataplane = control_plane.dataplane();
  const svc::ForwardResult result = dataplane.forward(
      paths.front(), [&](topo::LinkIndex l) { return control_plane.link_up(l); });
  std::printf("packet on best path: %s (%zu links traversed)\n",
              result.delivered ? "delivered" : result.error.c_str(),
              result.links_traversed);

  // Show what the control plane cost while we were at it.
  control_plane.ledger().print("control-plane traffic so far",
                               config.sim_duration, world.as_count());
  return result.delivered ? 0 : 1;
}
