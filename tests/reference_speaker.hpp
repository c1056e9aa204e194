// The speaker as it was before its RIBs became dense tables by origin slot:
// ordered maps and hash maps keyed by prefix and neighbor AS. Kept verbatim
// (only renamed into bgp::reference, with the shared option types and the
// UPDATE types taken from bgp/speaker.hpp) as the reference the lockstep
// test in test_bgp.cpp drives call by call beside bgp::Speaker.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bgp/messages.hpp"
#include "bgp/policy.hpp"
#include "bgp/speaker.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace scion::bgp::reference {

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
    Relationship learned_from{Relationship::kCustomer};
    topo::AsIndex neighbor{topo::kInvalidAsIndex};
    bool stale{false};

    std::size_t length() const { return path ? path->size() : 0; }
  };

  /// By value: flush() hands each UPDATE over by move, so a sink that
  /// wraps it in a BgpUpdateRef takes the prefix vectors without copying.
  using SendFn = std::function<void(topo::AsIndex neighbor, BgpUpdateMsg)>;
  using ScheduleFn = std::function<void(util::Duration delay, TimerKind kind,
                                        std::function<void()>)>;
  /// The simulator's virtual clock; damping penalty decay is a pure
  /// function of it. May be null when damping is disabled.
  using ClockFn = std::function<util::TimePoint()>;

  Speaker(topo::AsIndex self, std::vector<NeighborInfo> neighbors,
          SpeakerOptions options, SendFn send, ScheduleFn schedule,
          ClockFn clock, std::uint64_t seed);

  topo::AsIndex self() const { return self_; }

  /// Originates this AS's own prefix.
  void originate(Prefix p);

  /// Processes an UPDATE received from `from`.
  void handle_update(topo::AsIndex from, const BgpUpdateMsg& msg);

  /// eBGP session to `neighbor` went down: flush its routes and re-decide.
  /// `forwarding_preserved` means the data plane through the neighbor still
  /// works (a process restart rather than a link loss); only then does
  /// graceful restart retain the routes as stale instead of flushing.
  void session_down(topo::AsIndex neighbor, bool forwarding_preserved = false);

  /// Session restored: full table export per policy (a session reset
  /// triggers a full RIB exchange, the dominant churn cost in practice).
  void session_up(topo::AsIndex neighbor);

  bool session_is_up(topo::AsIndex neighbor) const;

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
  bool is_suppressed(topo::AsIndex neighbor, Prefix p) const;

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
    /// prefix -> advertised path (what the neighbor believes). Lookup-only,
    /// so the unordered container cannot leak iteration order into output.
    std::unordered_map<Prefix, AsPath> rib_out;
    /// prefix -> path to announce (null = withdraw), flushed on MRAI fire.
    /// Ordered: flush() iterates it, and that order decides UPDATE packing.
    std::map<Prefix, AsPath> pending;
    /// Damping state per flapped prefix (entries appear on first charge;
    /// steady-state charges are lookups). Ordered for deterministic
    /// debugging walks; never iterated on the hot path.
    std::map<Prefix, DampingState> damping;
    /// Bumped on every session up/down flip; graceful-restart timers
    /// no-op when the session state changed after they were armed.
    std::uint32_t gr_epoch{0};
  };

  std::size_t index_of(topo::AsIndex neighbor) const;
  void reevaluate(Prefix p);
  /// Brings one neighbor's Adj-RIB-Out in line with the current best.
  void sync_neighbor(std::size_t idx, Prefix p,
                     const std::optional<Route>& best, const AsPath& export_path);
  void arm_mrai(std::size_t idx);
  void flush(std::size_t idx);
  std::optional<Route> compute_best(Prefix p) const;
  /// Builds [self] + best.path once per re-decision.
  AsPath make_export_path(const Route& best) const;

  /// Damping machinery: charge one flap against (neighbor idx, prefix);
  /// the caller reevaluates afterwards. Suppression state may flip inside.
  void damping_charge(std::size_t idx, Prefix p);
  void damping_reuse(std::size_t idx, Prefix p, std::uint32_t epoch);
  void arm_reuse_timer(std::size_t idx, Prefix p, DampingState& st);
  bool slot_suppressed(std::size_t idx, Prefix p) const;
  double decayed_penalty(const DampingState& st, util::TimePoint now) const;

  /// Graceful restart: flush every still-stale route of the neighbor
  /// (armed by both the stale timer and the re-sync sweep).
  void flush_stale(std::size_t idx, std::uint32_t epoch);

  topo::AsIndex self_;
  SpeakerOptions options_;
  /// RFC 2439 penalty ceiling derived from max_suppress and half_life.
  double penalty_cap_{0.0};
  SendFn send_;
  ScheduleFn schedule_;
  ClockFn clock_;
  util::Rng rng_;

  std::vector<NeighborState> neighbors_;
  std::unordered_map<topo::AsIndex, std::size_t> neighbor_index_;
  /// prefix -> per-neighbor-slot route (empty path = no route). Ordered:
  /// session_down() re-decides every prefix in iteration order, which feeds
  /// the MRAI jitter RNG and therefore the message sequence.
  std::map<Prefix, std::vector<Route>> rib_in_;
  /// Ordered: session_up() replays it as the full-table export.
  std::map<Prefix, Route> loc_rib_;
  std::vector<Prefix> own_prefixes_;

  std::uint64_t updates_sent_{0};
  std::uint64_t routes_suppressed_{0};
  std::uint64_t routes_reused_{0};
  std::uint64_t stale_retained_{0};
  std::uint64_t stale_expired_{0};
};

}  // namespace scion::bgp::reference
