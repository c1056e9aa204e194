// Full SCION control-plane simulation on a multi-ISD topology.
//
// Runs both levels of the beaconing hierarchy simultaneously (core
// beaconing over core links, intra-ISD beaconing over provider-customer
// links), path servers with registrations / lookups / caching, the Zipf
// lookup workload, and link-failure revocations — every control-plane
// component of Table 1, each recorded in an OverheadLedger with its scope.
// It also exposes the on-demand path resolution used by the examples: the
// endpoint-visible flow of up-segment + core-segment + down-segment lookup
// followed by path combination.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "analysis/overhead.hpp"
#include "core/beacon_server.hpp"
#include "faults/fault_injector.hpp"
#include "scion/dataplane.hpp"
#include "scion/path_server.hpp"
#include "scion/scmp.hpp"
#include "simnet/network.hpp"
#include "util/rng.hpp"

namespace scion::svc {

struct ControlPlaneSimConfig {
  /// Dissemination and storage limits of both hierarchy levels (PCBs per
  /// origin AS). The beaconing interval (10 minutes) and PCB lifetime
  /// (6 hours) are the paper's, and revocation evicts stored PCBs.
  static constexpr std::size_t dissemination_limit = 5;
  static constexpr std::size_t storage_limit = 20;
  ctrl::AlgorithmKind algorithm{ctrl::AlgorithmKind::kBaseline};
  /// Leaf ASes register segments this often ("every tens of minutes").
  util::Duration registration_interval{util::Duration::minutes(20)};
  /// Global endpoint lookup workload (Poisson).
  double lookups_per_second{2.0};
  /// Zipf exponent over destination popularity (Internet traffic follows a
  /// Zipf distribution of destinations, Section 4.1).
  double zipf_exponent{1.1};
  /// Random provider-customer link failures per hour (drives revocations).
  /// Internally appended to `faults` as a FlapProcess; 0 disables.
  double link_failures_per_hour{2.0};
  /// Downtime of each of those failures.
  static constexpr util::Duration failure_downtime =
      util::Duration::minutes(2);
  util::Duration sim_duration{util::Duration::hours(1)};
  std::uint64_t seed{5};
  /// Additional fault scenario, armed when the measurement window starts.
  /// When this is left empty, the injector's randomness (the legacy flap
  /// process above) is seeded from `seed`; an explicit scenario keeps its
  /// own seed so scenario files replay identically across binaries.
  faults::FaultPlan faults{};
};

/// Ledger component names (shared with the Table 1 bench).
namespace component {
inline constexpr const char* kCoreBeaconing = "Core Beaconing";
inline constexpr const char* kIntraIsdBeaconing = "Intra-ISD Beaconing";
inline constexpr const char* kDownSegmentLookup = "Down-Path Segment Lookup";
inline constexpr const char* kCoreSegmentLookup = "Core-Path Segment Lookup";
inline constexpr const char* kEndpointLookup = "Endpoint Path Lookup";
inline constexpr const char* kRegistration = "Path (De-)Registration";
inline constexpr const char* kRevocation = "Path Revocation";
}  // namespace component

class ControlPlaneSim {
 public:
  ControlPlaneSim(const topo::Topology& topology, ControlPlaneSimConfig config);

  /// Runs the configured duration (single-shot).
  void run();

  const analysis::OverheadLedger& ledger() const { return ledger_; }
  const topo::Topology& topology() const { return topology_; }
  sim::Simulator& simulator() { return sim_; }
  const PathServer& path_server(topo::AsIndex as) const { return *path_servers_[as]; }
  const ctrl::BeaconServer* core_server(topo::AsIndex as) const {
    return core_servers_[as].get();
  }
  const ctrl::BeaconServer* intra_server(topo::AsIndex as) const {
    return intra_servers_[as].get();
  }
  const DataPlane& dataplane() const { return *dataplane_; }

  /// Whether a link is currently up (for data-plane forwarding).
  bool link_up(topo::LinkIndex l) const { return net_.channel_up(channel_of(l)); }

  /// Fails a link for `downtime` via the fault injector; both endpoint
  /// ASes revoke affected segments at the core path servers of their ISDs.
  void fail_link(topo::LinkIndex l, util::Duration downtime);

  /// The fault injector driving link failures (always present).
  const faults::FaultInjector& injector() const { return *injector_; }

  const sim::Network& network() const { return net_; }

  /// The segments an endpoint lookup from `src` to `dst` gathers: src's
  /// up-segments, core segments from each core they reach, and dst's
  /// down-segments.
  struct SegmentLookup {
    std::vector<SegmentRef> up;
    std::vector<SegmentRef> core;
    std::vector<SegmentRef> down;
  };

  /// Performs and records the segment lookups of an endpoint path
  /// resolution at the current simulated time, through src's lookup cache.
  SegmentLookup lookup_segments(topo::AsIndex src, topo::AsIndex dst);

  /// Endpoint-visible path resolution at the current simulated time:
  /// performs (and records) the lookups, then combines segments.
  std::vector<EndToEndPath> resolve_paths(topo::AsIndex src, topo::AsIndex dst);

  /// All leaf (non-core) ASes, the lookup workload population.
  const std::vector<topo::AsIndex>& leaves() const { return leaves_; }

  std::uint64_t lookups_performed() const { return lookups_performed_; }
  std::uint64_t paths_resolved() const { return paths_resolved_; }

 private:
  // The sim is built so node ids mirror AS indices and channel ids mirror
  // link indices (asserted at construction); these helpers make every
  // crossing between the two id spaces explicit.
  static sim::NodeId node_of(topo::AsIndex i) { return sim::NodeId{i}; }
  static sim::ChannelId channel_of(topo::LinkIndex l) {
    return sim::ChannelId{l};
  }
  static topo::LinkIndex link_of(sim::ChannelId ch) { return ch.value(); }

  analysis::Scope scope_between(topo::AsIndex a, topo::AsIndex b) const;
  void record_service_message(const char* comp, topo::AsIndex from,
                              topo::AsIndex to, util::Bytes bytes);
  void do_registration(topo::AsIndex leaf);
  void do_lookup();
  void schedule_next_lookup();
  void on_link_down(topo::LinkIndex l);
  // ISD numbers are 1-based; dense per-ISD tables index from 0.
  static std::size_t isd_slot(topo::IsdId isd) { return isd.value() - 1u; }

  /// Fetches (with caching and ledger recording) the core segments
  /// terminating at core AS `via` (a core of src's ISD that src's
  /// up-segments reach) towards the cores of dst's ISD, and dst's down
  /// segments from a core of dst's ISD.
  std::vector<SegmentRef> fetch_core_segments(topo::AsIndex src,
                                              topo::AsIndex via,
                                              topo::IsdId dst_isd);
  std::vector<SegmentRef> fetch_down_segments(topo::AsIndex src,
                                              topo::AsIndex dst);

  /// A stored core PCB and the core segment a via core terminated it into.
  struct TerminatedPcb {
    ctrl::PcbRef pcb;
    SegmentRef segment;
  };

  const topo::Topology& topology_;
  ControlPlaneSimConfig config_;
  sim::Simulator sim_;
  sim::Network net_;
  util::Rng rng_;
  std::unique_ptr<crypto::KeyStore> keys_;
  std::vector<std::unique_ptr<ctrl::BeaconServer>> core_servers_;
  std::vector<std::unique_ptr<ctrl::BeaconServer>> intra_servers_;
  std::vector<std::unique_ptr<PathServer>> path_servers_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unique_ptr<DataPlane> dataplane_;
  analysis::OverheadLedger ledger_;
  std::vector<topo::AsIndex> leaves_;
  std::vector<std::vector<topo::AsIndex>> cores_by_isd_;  // [isd-1] -> cores
  /// Per (via core << 32 | origin core): the core segments the via served
  /// for that origin on its last cache miss, so a PCB that is still stored
  /// is terminated and signed once, not once per asking leaf.
  std::unordered_map<std::uint64_t, std::vector<TerminatedPcb>> terminated_;
  std::uint64_t lookups_performed_{0};
  std::uint64_t paths_resolved_{0};
  bool ran_{false};
};

}  // namespace scion::svc
