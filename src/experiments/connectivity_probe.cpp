#include "experiments/connectivity_probe.hpp"

#include <algorithm>
#include <iterator>

namespace scion::exp {

bool scion_pair_live(const ctrl::BeaconingSim& sim, topo::AsIndex s,
                     topo::AsIndex t) {
  std::vector<std::vector<topo::LinkIndex>> paths =
      sim.paths_at(s, sim.topology().as_id(t));
  std::vector<std::vector<topo::LinkIndex>> reverse =
      sim.paths_at(t, sim.topology().as_id(s));
  paths.insert(paths.end(), std::make_move_iterator(reverse.begin()),
               std::make_move_iterator(reverse.end()));
  // One stored path is live iff every link it traverses is currently up.
  const sim::Network& net = sim.network();
  for (const auto& path : paths) {
    if (path.empty()) continue;
    const bool live =
        std::all_of(path.begin(), path.end(), [&net](topo::LinkIndex l) {
          return net.channel_up(static_cast<sim::ChannelId>(l));
        });
    if (live) return true;
  }
  return false;
}

}  // namespace scion::exp
