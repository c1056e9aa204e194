// Event-driven BGP / BGPsec network simulation (the SimBGP substitute).
//
// Configuration mirrors Section 5.1: each AS is one speaker, MRAI 15 s per
// neighbor, 5 ms processing delay per incoming update. The run has two
// phases: cold-start convergence (warm-up, excluded from accounting) and a
// measurement window driven by a Poisson session-flap churn process. The
// monitors record per-origin update statistics from which monthly BGP and
// BGPsec byte counts are derived, applying per-AS prefix counts exactly as
// the paper extrapolates SimBGP results with RouteViews prefix counts.
#pragma once

#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "bgp/speaker.hpp"
#include "faults/fault_injector.hpp"
#include "simnet/network.hpp"
#include "util/rng.hpp"

namespace scion::bgp {

struct BgpSimConfig {
  /// Churn-survival mechanisms, both default-off (steady-state runs stay
  /// byte-identical to the pre-churn configuration).
  DampingConfig damping{};
  GracefulRestartConfig graceful_restart{};
  /// Warm-up: cold-start convergence, excluded from the measurement.
  util::Duration convergence_window{util::Duration::minutes(30)};
  /// Measurement window with churn; extrapolated to a month.
  util::Duration churn_window{util::Duration::hours(2)};
  /// Expected session flaps per adjacency per day (drives steady-state
  /// update volume; see DESIGN.md substitutions).
  double flaps_per_adjacency_per_day{0.2};
  /// Number of ASes that originate a prefix in the simulation; 0 = all.
  /// Sampling keeps memory bounded; accounting scales by total/sampled.
  std::size_t sampled_origins{0};
  util::Duration min_latency{util::Duration::milliseconds(2)};
  util::Duration max_latency{util::Duration::milliseconds(40)};
  std::uint64_t seed{1};
  /// Additional fault scenario, armed when the measurement window starts.
  /// When this is left empty, the injector (running the legacy churn
  /// process above) is seeded from `seed`; an explicit scenario keeps its
  /// own seed so scenario files replay identically across binaries.
  faults::FaultPlan faults{};
};

/// Per-monitor, per-origin aggregates sufficient to reconstruct monthly BGP
/// and BGPsec byte counts (both size models are affine in path length).
struct MonitorAccount {
  struct PerOrigin {
    std::uint64_t announce_events{0};
    std::uint64_t withdraw_events{0};
    std::uint64_t path_len_sum{0};
    double fixed_share_sum{0.0};
  };
  /// Ordered: monthly_bgp_bytes()/monthly_bgpsec_bytes() accumulate
  /// doubles over this map, and float addition is not associative — an
  /// unordered container would make the reported bytes depend on hash
  /// iteration order.
  std::map<Prefix, PerOrigin> per_origin;
  std::uint64_t raw_messages{0};
  std::uint64_t raw_bytes{0};
};

class BgpSim {
 public:
  BgpSim(const topo::Topology& topology, BgpSimConfig config);

  /// Registers a monitor AS (call before run()).
  void add_monitor(topo::AsIndex as);

  /// Runs convergence + churn (single-shot).
  void run();

  const topo::Topology& topology() const { return topology_; }
  const Speaker& speaker(topo::AsIndex as) const { return *speakers_[as]; }

  /// The ASes that originate a prefix in this run, ascending.
  const std::vector<Prefix>& origins() const { return origins_.prefixes(); }

  const MonitorAccount& monitor(topo::AsIndex as) const;

  /// Monthly BGP bytes at a monitor given per-AS prefix counts.
  double monthly_bgp_bytes(topo::AsIndex monitor,
                           const std::vector<std::uint32_t>& prefix_counts) const;

  /// Monthly BGPsec bytes at a monitor given per-AS prefix counts.
  double monthly_bgpsec_bytes(
      topo::AsIndex monitor,
      const std::vector<std::uint32_t>& prefix_counts) const;

  /// Equal-best multipath routes from `src` towards origin `t`, expanded to
  /// inter-AS links (all parallel links of each hop included) — the path
  /// sets for the Fig. 6 BGP series.
  std::vector<std::vector<topo::LinkIndex>> bgp_link_paths(topo::AsIndex src,
                                                           Prefix t) const;

  /// True if `src`'s RIB holds a route to `t` every hop of which rides a
  /// currently-up session channel (the dynamic-resilience connectivity
  /// probe: a stale route through a dead session does not count).
  bool has_live_route(topo::AsIndex src, Prefix t) const;

  std::uint64_t total_updates_sent() const;
  /// Network-wide churn-survival counters, summed over all speakers.
  std::uint64_t total_routes_suppressed() const;
  std::uint64_t total_routes_reused() const;
  std::uint64_t total_stale_retained() const;
  std::uint64_t total_stale_expired() const;
  sim::Simulator& simulator() { return sim_; }
  const sim::Network& network() const { return net_; }

  /// The fault injector driving session churn (always present).
  const faults::FaultInjector& injector() const { return *injector_; }

 private:
  // Node ids mirror AS indices by construction (asserted in the
  // constructor); channels do NOT mirror links here — one BGP session
  // channel serves each distinct adjacency (see channel_by_pair_).
  static sim::NodeId node_of(topo::AsIndex i) { return sim::NodeId{i}; }
  static topo::AsIndex as_of(sim::NodeId n) { return n.value(); }

  /// One BGP session (a distinct adjacency a < b) and where each end keeps
  /// the other in its neighbor list.
  struct Session {
    topo::AsIndex a;
    topo::AsIndex b;
    NeighborSlot b_at_a{};
    NeighborSlot a_at_b{};

    /// The far end's slot in `as`'s neighbor list.
    NeighborSlot slot_at(topo::AsIndex as) const {
      return as == a ? b_at_a : a_at_b;
    }
  };

  void deliver(topo::AsIndex to, const sim::Message& msg);
  void account(topo::AsIndex monitor, const BgpUpdateMsg& msg);
  void on_link_down(topo::LinkIndex l);
  void on_link_up(topo::LinkIndex l);
  void on_session_restart(topo::LinkIndex l, util::Duration duration);
  sim::ChannelId session_channel(topo::LinkIndex l) const {
    return link_channel_[l];
  }
  const Session& session_of(topo::LinkIndex l) const {
    return sessions_[link_channel_[l].value()];
  }
  double accounting_scale() const;

  const topo::Topology& topology_;
  BgpSimConfig config_;
  sim::Simulator sim_;
  sim::Network net_;
  util::Rng rng_;
  /// Declared before the speakers, which read it until they are destroyed.
  OriginSlots origins_;
  std::vector<std::unique_ptr<Speaker>> speakers_;
  /// By channel id: the network holds exactly one channel per session.
  std::vector<Session> sessions_;
  std::vector<sim::ChannelId> link_channel_;
  /// Session channel by (AS, neighbor slot): entries first_neighbor_[as]
  /// onwards, in the order of the AS's neighbor list.
  std::vector<std::size_t> first_neighbor_;
  std::vector<sim::ChannelId> neighbor_channel_;
  std::unordered_map<std::uint64_t, sim::ChannelId> channel_by_pair_;
  std::unique_ptr<faults::FaultInjector> injector_;
  std::unordered_map<topo::AsIndex, MonitorAccount> monitors_;
  std::vector<util::TimePoint> busy_until_;
  util::TimePoint measure_start_;
  bool measuring_{false};
  bool ran_{false};
};

}  // namespace scion::bgp
