// Executes a FaultPlan against a sim::Network (the "how" of fault
// injection).
//
// The injector owns the plan's RNG, schedules every one-shot event and
// stochastic flap on the network's simulator, flips channel/node state, and
// notifies the owning simulator through Hooks so protocol logic (SCMP
// revocation, BGP session teardown, beacon-store eviction) can react. All
// three simulators (BeaconingSim, ControlPlaneSim, BgpSim) consume this one
// implementation; none keeps bespoke failure code.
//
// Links vs channels: scenarios target topology LinkIndex values. Most
// simulators create one channel per link (identity mapping), but e.g.
// BgpSim multiplexes parallel links onto one session channel — the
// channel_of_link hook captures that mapping. Down-state is reference
// counted per link and per channel, so overlapping outages (a flap during
// an ISD partition) restore correctly: a channel comes back up only when
// every outage holding it down has ended, and hooks fire only on actual
// down/up transitions.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "faults/fault_plan.hpp"
#include "simnet/network.hpp"
#include "topology/topology.hpp"
#include "util/rng.hpp"

namespace scion::faults {

/// Counters for everything the injector did.
struct FaultInjectorStats {
  std::uint64_t link_down_events{0};
  std::uint64_t link_up_events{0};
  std::uint64_t node_down_events{0};
  std::uint64_t node_up_events{0};
  std::uint64_t flaps{0};
  std::uint64_t partitions{0};
  /// Link-down events fired by expanded churn specs.
  std::uint64_t churn_events{0};
  /// Session-restart events handed to the simulator (skipped when the
  /// simulator installs no on_session_restart hook).
  std::uint64_t session_restarts{0};
  /// Scenario events whose target was out of range for this topology
  /// (scenarios are portable across topology sizes; extra targets are
  /// skipped, not fatal).
  std::uint64_t events_skipped{0};
};

class FaultInjector {
 public:
  struct Hooks {
    /// Fired when a link transitions up->down / down->up (after the
    /// network state changed). The simulator reacts here: revoke paths,
    /// tear down sessions, evict beacons.
    std::function<void(topo::LinkIndex)> on_link_down;
    std::function<void(topo::LinkIndex)> on_link_up;
    /// Fired when a node (AS) transitions up->down / down->up.
    std::function<void(sim::NodeId)> on_node_down;
    std::function<void(sim::NodeId)> on_node_up;
    /// Fired for kSessionRestart events: the transport carried by `link`
    /// stays up, but the protocol session riding it drops for the given
    /// duration. Simulators without session state leave this unset and the
    /// event is counted as skipped.
    std::function<void(topo::LinkIndex, util::Duration)> on_session_restart;
    /// Maps a topology link to its network channel. Defaults to identity
    /// (the ChannelId == LinkIndex invariant most simulators keep).
    std::function<sim::ChannelId(topo::LinkIndex)> channel_of_link;
  };

  /// `topology` is optional but required for ISD partitions, AS-outage
  /// bounds checks, and link-class flap filters; without it the link space
  /// is assumed to be [0, net.channel_count()). Borrowed pointers must
  /// outlive the injector.
  FaultInjector(sim::Network& net, FaultPlan plan,
                const topo::Topology* topology = nullptr, Hooks hooks = {});

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Starts the scenario: installs loss/jitter and the fault RNG on the
  /// network, schedules every event at now()+offset, and starts the flap
  /// processes. Flap processes stop scheduling past `until` so simulations
  /// that drain the event queue terminate. Call at the start of the
  /// measurement window, once.
  void arm(util::TimePoint until = util::TimePoint::max());

  /// Direct injection, usable with or without a plan (this is what
  /// ControlPlaneSim::fail_link delegates to). `downtime` of zero means
  /// the outage is permanent until inject_link_up.
  void inject_link_down(topo::LinkIndex link, util::Duration downtime);
  void inject_link_up(topo::LinkIndex link);
  void inject_node_down(sim::NodeId node, util::Duration downtime);
  void inject_node_up(sim::NodeId node);

  /// True if no outage currently holds the link down.
  bool link_up(topo::LinkIndex link) const;

  const FaultInjectorStats& stats() const { return stats_; }
  const FaultPlan& plan() const { return plan_; }
  util::Rng& rng() { return rng_; }

 private:
  void run_event(const Event& ev);
  void start_flap_process(const FlapProcess& flap, util::TimePoint until);
  void fire_flap(std::size_t flap_idx, util::TimePoint until);
  void start_churn(const ChurnSpec& spec, std::size_t spec_idx,
                   util::TimePoint until);
  /// Down-then-restore used by flap and churn paths: unlike plan events,
  /// a zero downtime here means "bounce now", not "permanent" — the restore
  /// is scheduled unconditionally so a degenerate flap still fires the down
  /// and up hooks exactly once each.
  void flap_link_down(topo::LinkIndex link, util::Duration downtime);
  std::vector<topo::LinkIndex> flap_candidates(LinkClass link_class) const;
  void partition_isd(topo::IsdId isd, util::Duration duration);

  /// Reference-counted down state; hooks fire on 0->1 / 1->0 transitions.
  void link_down_ref(topo::LinkIndex link);
  void link_down_unref(topo::LinkIndex link);
  void node_down_ref(sim::NodeId node);
  void node_down_unref(sim::NodeId node);

  sim::ChannelId channel_of(topo::LinkIndex link) const;
  std::size_t link_count() const;
  void skip_event(const Event& ev);

  sim::Network& net_;
  FaultPlan plan_;
  const topo::Topology* topology_;
  Hooks hooks_;
  util::Rng rng_;
  std::vector<std::uint32_t> link_depth_;
  std::vector<std::uint32_t> channel_depth_;
  std::vector<std::uint32_t> node_depth_;
  /// When each link's current outage began (valid while depth > 0); feeds
  /// the faults.link_downtime_s recovery histogram.
  std::vector<util::TimePoint> down_since_;
  FaultInjectorStats stats_;
  bool armed_{false};
};

}  // namespace scion::faults
