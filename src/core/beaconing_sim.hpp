// Whole-network beaconing simulation (the experiment driver for Sections
// 5.1-5.2): one node per AS, one bidirectional channel per inter-AS link
// (ChannelId == LinkIndex by construction), one beacon server per AS fired
// periodically with a deterministic per-AS phase offset.
#pragma once

#include <memory>
#include <vector>

#include "core/beacon_server.hpp"
#include "faults/fault_injector.hpp"
#include "simnet/network.hpp"
#include "util/rng.hpp"

namespace scion::ctrl {

struct BeaconingSimConfig {
  BeaconServerConfig server;
  /// Simulated duration (paper: 6 hours).
  util::Duration sim_duration{util::Duration::hours(6)};
  /// Warm-up excluded from all byte/message accounting. The Fig. 5
  /// methodology extrapolates a measured window to a month by the
  /// *periodicity* of announcements; the diversity algorithm only becomes
  /// periodic once its initial exploration has quiesced (one PCB lifetime
  /// is a safe bound), while the baseline is periodic from the start.
  util::Duration warmup{util::Duration::zero()};
  /// Propagation latency range for inter-AS links.
  util::Duration min_latency{util::Duration::milliseconds(2)};
  util::Duration max_latency{util::Duration::milliseconds(40)};
  std::uint64_t seed{1};
  /// Fault scenario, armed when the measurement window starts (event
  /// offsets are relative to the end of warm-up). Empty = no faults.
  faults::FaultPlan faults{};
};

/// Per-interface outbound usage (one row per link direction), the raw data
/// behind the overhead CDFs (Fig. 5, Fig. 9).
struct InterfaceUsage {
  topo::LinkIndex link{topo::kInvalidLinkIndex};
  topo::AsIndex from{topo::kInvalidAsIndex};
  std::uint64_t messages{0};
  util::Bytes bytes{};
};

class BeaconingSim {
 public:
  BeaconingSim(const topo::Topology& topology, BeaconingSimConfig config);

  /// Runs the configured duration (callable once).
  void run();

  const topo::Topology& topology() const { return topology_; }
  const BeaconServer& server(topo::AsIndex as) const { return *servers_[as]; }
  sim::Simulator& simulator() { return sim_; }
  const sim::Network& network() const { return net_; }

  /// The fault injector executing config.faults; null when the plan is
  /// empty.
  const faults::FaultInjector* injector() const { return injector_.get(); }

  /// Outbound usage of every interface (two rows per link).
  std::vector<InterfaceUsage> interface_usage() const;

  /// Total PCB bytes sent network-wide.
  util::Bytes total_bytes() const { return net_.total_bytes_all(); }

  /// Total PCBs sent network-wide.
  std::uint64_t total_pcbs_sent() const;

  /// Aggregated stats over all servers.
  BeaconServerStats aggregate_stats() const;

  /// The link paths from `origin` currently stored at `at` — the set of
  /// disseminated path segments used by the path-quality analysis.
  std::vector<std::vector<topo::LinkIndex>> paths_at(topo::AsIndex at,
                                                     topo::IsdAsId origin) const;

  /// The paths both ends of a pair store from each other: paths_at(a, b)
  /// followed by paths_at(b, a). Segments are direction-agnostic at link
  /// level, so this is the path set a pair can use.
  std::vector<std::vector<topo::LinkIndex>> paths_between(
      topo::AsIndex a, topo::AsIndex b) const;

 private:
  /// Identity mappings between topology handles and simnet handles, pinned
  /// by construction-time asserts: nodes are added in AS-index order and
  /// channels in link order. All AsIndex/LinkIndex <-> NodeId/ChannelId
  /// crossings go through these, so the conversion is auditable in one
  /// place instead of scattered casts.
  static sim::NodeId node_of(topo::AsIndex i) { return sim::NodeId{i}; }
  static sim::ChannelId channel_of(topo::LinkIndex l) {
    return sim::ChannelId{l};
  }
  static topo::LinkIndex link_of(sim::ChannelId ch) { return ch.value(); }

  const topo::Topology& topology_;
  BeaconingSimConfig config_;
  sim::Simulator sim_;
  sim::Network net_;
  std::unique_ptr<crypto::KeyStore> keys_;
  std::vector<std::unique_ptr<BeaconServer>> servers_;
  std::unique_ptr<faults::FaultInjector> injector_;
  bool ran_{false};
};

}  // namespace scion::ctrl
