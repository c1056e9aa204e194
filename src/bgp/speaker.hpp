// A BGP/BGPsec speaker: one per AS (the paper's SimBGP configuration models
// each AS as border routers in a star around one internal speaker holding
// the LOC_RIB; only the central speaker runs the decision process, so we
// model it directly).
//
// Implements Adj-RIB-In / Loc-RIB / Adj-RIB-Out, the Gao-Rexford decision
// process (local-pref by relationship, then shortest AS path, then lowest
// neighbor id), per-neighbor MRAI batching (15 s in the evaluation) with
// seeded jitter, session up/down handling for link-flap churn, and a
// multipath accessor returning the equal-best route set used by the Fig. 6
// BGP series. An MRAI flush sends one UPDATE per announced prefix, in prefix
// order, and the first of them carries every withdrawal (a flush with
// nothing to announce sends one withdrawal-only UPDATE). Announcements are
// never packed together: each simulated prefix stands for one origin AS and
// gets its own export path, and the monthly accounting models real-world
// packing with kPrefixesPerRealUpdate (messages.hpp).
//
// State is dense by origin slot (OriginSlots): every RIB is a table with
// one row per originating prefix and, where the state is per adjacency, one
// column per neighbor, allocated when the first route arrives.
//
// Churn-survival mechanisms (both default-off so steady-state runs are
// byte-identical to the pre-churn configuration):
//
//  - Route-flap damping (RFC 2439 shape): each (neighbor, prefix) carries a
//    penalty charged on withdrawal / path change / session loss, decayed
//    exponentially with a configured half-life. Crossing the suppress
//    threshold removes the route from the decision process until the
//    penalty decays back under the reuse threshold (re-checked by a seeded
//    reuse timer, never by wall-clock polling).
//  - Graceful restart: a session drop marks the neighbor's routes stale
//    instead of flushing them, preserving forwarding through the outage. A
//    stale timer flushes if the session never returns; after it returns,
//    the peer's full-table replay refreshes routes and a re-sync sweep
//    drops whatever stayed stale (the End-of-RIB substitute).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "bgp/messages.hpp"
#include "bgp/policy.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace scion::bgp {

/// What a deferred speaker callback is for; the owning simulator maps each
/// kind to its own obs::EventLabel so the event profiler attributes MRAI
/// flushes, damping reuse checks, and graceful-restart sweeps separately.
enum class TimerKind : std::uint8_t {
  kMrai,
  kDamping,
  kGrStale,
};

/// RFC 2439-shaped route-flap damping knobs. Defaults follow the RFC's
/// example figures (15 min half-life, one hour maximum suppression); the
/// penalty per flap and the suppress and reuse thresholds are fixed at the
/// RFC's 1000, 2000 and 750 in speaker.cpp.
struct DampingConfig {
  bool enabled{false};
  util::Duration half_life{util::Duration::minutes(15)};
  /// Bounds suppression via the RFC's penalty ceiling: the penalty is
  /// capped so that decaying to the reuse threshold never takes longer
  /// than this.
  util::Duration max_suppress{util::Duration::hours(1)};
};

struct GracefulRestartConfig {
  bool enabled{false};
  /// How long stale routes survive a dead session before being flushed.
  util::Duration stale_timer{util::Duration::minutes(3)};
  /// After the session returns, how long the peer's full-table replay may
  /// take before still-stale routes are swept (End-of-RIB substitute).
  util::Duration resync_flush_delay{util::Duration::minutes(1)};
};

/// The MRAI (15 s, with seeded jitter) is fixed in speaker.cpp.
struct SpeakerOptions {
  DampingConfig damping{};
  GracefulRestartConfig graceful_restart{};
};

/// The prefixes a simulation routes, ranked: slot s holds the s-th smallest
/// originating prefix, so walking slots in order walks prefixes in order.
/// Every speaker table is indexed by slot. A slot ranks among the origins,
/// not among all ASes, so a run with sampled origins keeps tables the size
/// of the sample.
class OriginSlots {
 public:
  /// Slot of a prefix that no AS originates.
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  OriginSlots() = default;
  /// `origins` ascending and distinct, each below `prefix_space`.
  OriginSlots(std::vector<Prefix> origins, std::size_t prefix_space);

  std::size_t size() const { return prefixes_.size(); }
  const std::vector<Prefix>& prefixes() const { return prefixes_; }
  Prefix prefix(std::uint32_t slot) const { return prefixes_[slot]; }
  std::uint32_t slot(Prefix p) const {
    return p < slot_of_.size() ? slot_of_[p] : kNone;
  }

 private:
  std::vector<Prefix> prefixes_;
  std::vector<std::uint32_t> slot_of_;
};

/// Position of a neighbor in a speaker's neighbor list. Strong: an AS index
/// is not a neighbor position, and passing one where the other is expected
/// does not compile.
using NeighborSlot = util::StrongId<struct NeighborSlotTag, std::uint32_t>;

class Speaker {
 public:
  struct NeighborInfo {
    topo::AsIndex as{topo::kInvalidAsIndex};
    Relationship rel{Relationship::kPeer};
  };

  /// A route in Adj-RIB-In (or the Loc-RIB best). `path` starts at the
  /// sending neighbor and ends at the origin; self-originated routes have
  /// an empty path. `stale` marks graceful-restart survivors: still used
  /// for forwarding, flushed if re-sync does not refresh them.
  struct Route {
    AsPath path;
    topo::AsIndex neighbor{topo::kInvalidAsIndex};
    Relationship learned_from{Relationship::kCustomer};
    bool stale{false};

    std::size_t length() const { return path ? path->size() : 0; }
  };

  /// By value: flush() hands each UPDATE over by move, so a sink that
  /// wraps it in a BgpUpdateRef takes the prefix vectors without copying.
  using SendFn = std::function<void(NeighborSlot to, BgpUpdateMsg)>;
  using ScheduleFn = std::function<void(util::Duration delay, TimerKind kind,
                                        std::function<void()>)>;
  /// The simulator's virtual clock; damping penalty decay is a pure
  /// function of it. May be null when damping is disabled.
  using ClockFn = std::function<util::TimePoint()>;

  /// `origins` must outlive the speaker; only originated prefixes are
  /// routed.
  Speaker(topo::AsIndex self, std::vector<NeighborInfo> neighbors,
          const OriginSlots& origins, SpeakerOptions options, SendFn send,
          ScheduleFn schedule, ClockFn clock, std::uint64_t seed);

  topo::AsIndex self() const { return self_; }

  /// Position of `neighbor` in the neighbor list: a linear scan, for
  /// callers that know an AS rather than a session.
  NeighborSlot neighbor_slot(topo::AsIndex neighbor) const;

  /// Originates this AS's own prefix.
  void originate(Prefix p);

  /// Processes an UPDATE received from neighbor `from`.
  void handle_update(NeighborSlot from, const BgpUpdateMsg& msg);

  /// eBGP session to `neighbor` went down: flush its routes and re-decide.
  /// `forwarding_preserved` means the data plane through the neighbor still
  /// works (a process restart rather than a link loss); only then does
  /// graceful restart retain the routes as stale instead of flushing.
  void session_down(NeighborSlot neighbor, bool forwarding_preserved = false);

  /// Session restored: full table export per policy (a session reset
  /// triggers a full RIB exchange, the dominant churn cost in practice).
  void session_up(NeighborSlot neighbor);

  bool session_is_up(NeighborSlot neighbor) const;

  /// Current best route for a prefix (nullopt if unreachable).
  std::optional<Route> best(Prefix p) const;

  /// Equal-best multipath set: every Adj-RIB-In route tying the best on
  /// (local-pref, AS-path length).
  std::vector<Route> multipath(Prefix p) const;

  std::uint64_t updates_sent() const { return updates_sent_; }

  /// Damping: (neighbor, prefix) adjacencies currently / ever suppressed.
  std::uint64_t routes_suppressed() const { return routes_suppressed_; }
  std::uint64_t routes_reused() const { return routes_reused_; }
  /// Graceful restart: routes retained as stale across session drops, and
  /// stale routes eventually expired by the stale timer or re-sync sweep.
  std::uint64_t stale_retained() const { return stale_retained_; }
  std::uint64_t stale_expired() const { return stale_expired_; }

  /// True if the (neighbor, prefix) adjacency is damping-suppressed.
  bool is_suppressed(NeighborSlot neighbor, Prefix p) const;

 private:
  /// Per-(neighbor, prefix) flap-damping state. The penalty decays lazily:
  /// it is only re-evaluated when charged or when a reuse timer fires, so
  /// the figure-of-merit never depends on when an observer looks.
  struct DampingState {
    double penalty{0.0};
    util::TimePoint last_charge{util::TimePoint::origin()};
    bool suppressed{false};
    /// Bumped on every suppress/unsuppress flip; in-flight reuse timers
    /// carry the epoch they were armed under and no-op on mismatch.
    std::uint32_t epoch{0};
  };

  struct NeighborState {
    NeighborInfo info;
    bool up{true};
    bool mrai_armed{false};
    /// Slots to send on the next MRAI flush, in the order they were
    /// queued; `queued_` says which are still live. flush() sorts them, so
    /// UPDATEs leave in prefix order, and reads each path from Adj-RIB-Out
    /// (a null path is a withdrawal).
    std::vector<std::uint32_t> pending;
    /// Bumped on every session up/down flip; graceful-restart timers
    /// no-op when the session state changed after they were armed.
    std::uint32_t gr_epoch{0};
  };

  /// Rows allocated so far: 0 until the first route, then every slot.
  std::size_t rows() const { return loc_rib_.size(); }
  /// Index of (slot, neighbor) in the per-adjacency tables.
  std::size_t cell(std::uint32_t slot, std::size_t idx) const {
    return slot * neighbors_.size() + idx;
  }
  std::size_t index_of(NeighborSlot neighbor) const;
  /// The slot of a prefix this speaker is handed; it must originate.
  std::uint32_t slot_of(Prefix p) const;
  void allocate_rows();

  void reevaluate(std::uint32_t slot);
  /// Brings one neighbor's Adj-RIB-Out in line with the current best.
  void sync_neighbor(std::size_t idx, std::uint32_t slot, const Route* best,
                     const AsPath& export_path);
  void arm_mrai(std::size_t idx);
  void flush(std::size_t idx);
  void clear_pending(std::size_t idx);
  /// The winning route of a slot: `own_route_`, an Adj-RIB-In entry, or
  /// null when the prefix is unreachable.
  const Route* compute_best(std::uint32_t slot) const;
  /// Builds [self] + best.path once per re-decision.
  AsPath make_export_path(const Route& best) const;

  /// Damping machinery: charge one flap against (neighbor idx, slot);
  /// the caller reevaluates afterwards. Suppression state may flip inside.
  void damping_charge(std::size_t idx, std::uint32_t slot);
  void damping_reuse(std::size_t idx, std::uint32_t slot, std::uint32_t epoch);
  void arm_reuse_timer(std::size_t idx, std::uint32_t slot,
                       const DampingState& st);
  bool slot_suppressed(std::size_t idx, std::uint32_t slot) const;
  double decayed_penalty(const DampingState& st, util::TimePoint now) const;

  /// Graceful restart: flush every still-stale route of the neighbor
  /// (armed by both the stale timer and the re-sync sweep).
  void flush_stale(std::size_t idx, std::uint32_t epoch);

  topo::AsIndex self_;
  const OriginSlots& origins_;
  SpeakerOptions options_;
  /// RFC 2439 penalty ceiling derived from max_suppress and half_life.
  double penalty_cap_{0.0};
  SendFn send_;
  ScheduleFn schedule_;
  ClockFn clock_;
  util::Rng rng_;
  /// The route compute_best() offers for an own prefix.
  Route own_route_;

  std::vector<NeighborState> neighbors_;
  std::vector<std::uint32_t> own_slots_;

  // Per adjacency, by cell(slot, neighbor):
  /// Adj-RIB-In (null path = no route).
  std::vector<Route> rib_in_;
  /// Adj-RIB-Out: what the neighbor was told (null = nothing).
  std::vector<AsPath> rib_out_;
  /// The slot is in the neighbor's pending list and not cancelled.
  std::vector<std::uint8_t> queued_;
  /// Flap damping; allocated at the first charge, so empty with damping
  /// off.
  std::vector<DampingState> damping_;

  // Per slot:
  /// Loc-RIB (neighbor == kInvalidAsIndex = unreachable).
  std::vector<Route> loc_rib_;
  /// Some neighbor announced the prefix (the bgp.rib_in_prefixes gauge
  /// counts them).
  std::vector<std::uint8_t> announced_;
  std::size_t loc_rib_routes_{0};
  std::size_t rib_in_prefixes_{0};

  std::uint64_t updates_sent_{0};
  std::uint64_t routes_suppressed_{0};
  std::uint64_t routes_reused_{0};
  std::uint64_t stale_retained_{0};
  std::uint64_t stale_expired_{0};
};

}  // namespace scion::bgp
