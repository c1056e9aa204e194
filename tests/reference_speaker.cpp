#include "reference_speaker.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "util/check.hpp"

namespace scion::bgp::reference {


namespace {

/// Minimum route advertisement interval per neighbor (Section 5.1). Each
/// flush waits kMrai * U[1 - kMraiJitter, 1 + kMraiJitter], desynchronizing
/// neighbors the way deployed timers do.
constexpr util::Duration kMrai = util::Duration::seconds(15);
constexpr double kMraiJitter = 0.2;

/// RFC 2439's example damping figures: each flap adds kPenaltyPerFlap; a
/// route is suppressed at kSuppressThreshold and reused once the decayed
/// penalty falls to kReuseThreshold.
constexpr double kPenaltyPerFlap = 1000.0;
constexpr double kSuppressThreshold = 2000.0;
constexpr double kReuseThreshold = 750.0;
static_assert(kPenaltyPerFlap > 0.0 && kReuseThreshold > 0.0 &&
                  kSuppressThreshold > kReuseThreshold,
              "damping thresholds inverted");

bool contains(const AsPath& path, topo::AsIndex as) {
  return path && std::find(path->begin(), path->end(), as) != path->end();
}

/// Decision-process ordering: higher local-pref, then shorter path, then
/// lowest neighbor id (deterministic tie-break).
bool better(const Speaker::Route& x, const Speaker::Route& y) {
  const int px = local_pref(x.learned_from);
  const int py = local_pref(y.learned_from);
  if (px != py) return px > py;
  if (x.length() != y.length()) return x.length() < y.length();
  return x.neighbor < y.neighbor;
}

bool same_path(const AsPath& a, const AsPath& b) {
  if (a == b) return true;
  if (!a || !b) return false;
  return *a == *b;
}

}  // namespace

Speaker::Speaker(topo::AsIndex self, std::vector<NeighborInfo> neighbors,
                 SpeakerOptions options, SendFn send, ScheduleFn schedule,
                 ClockFn clock, std::uint64_t seed)
    : self_{self},
      options_{options},
      send_{std::move(send)},
      schedule_{std::move(schedule)},
      clock_{std::move(clock)},
      rng_{seed} {
  SCION_CHECK(send_ && schedule_, "speaker needs send and schedule hooks");
  SCION_CHECK(!options_.damping.enabled || clock_,
              "flap damping needs the simulator clock for penalty decay");
  if (options_.damping.enabled) {
    const DampingConfig& d = options_.damping;
    SCION_CHECK(d.half_life > util::Duration::zero(),
                "damping half-life must be positive");
    // RFC 2439 penalty ceiling: a fully charged penalty decays to the
    // reuse threshold within max_suppress.
    penalty_cap_ = kReuseThreshold * std::exp2(d.max_suppress / d.half_life);
  }
  neighbors_.reserve(neighbors.size());
  for (const NeighborInfo& info : neighbors) {
    neighbor_index_.emplace(info.as, neighbors_.size());
    neighbors_.push_back(NeighborState{info, true, false, {}, {}, {}, 0});
  }
}

std::size_t Speaker::index_of(topo::AsIndex neighbor) const {
  const auto it = neighbor_index_.find(neighbor);
  SCION_CHECK(it != neighbor_index_.end(), "unknown neighbor");
  return it->second;
}

void Speaker::originate(Prefix p) {
  own_prefixes_.push_back(p);
  reevaluate(p);
}

std::optional<Speaker::Route> Speaker::compute_best(Prefix p) const {
  std::optional<Route> best;
  if (std::find(own_prefixes_.begin(), own_prefixes_.end(), p) !=
      own_prefixes_.end()) {
    // Self-originated: empty path, treated as a customer route for export.
    best = Route{nullptr, Relationship::kCustomer, self_};
  }
  const auto it = rib_in_.find(p);
  if (it != rib_in_.end()) {
    for (std::size_t idx = 0; idx < neighbors_.size(); ++idx) {
      const Route& r = it->second[idx];
      if (!r.path) continue;
      // Damping removes suppressed adjacencies from the decision process;
      // graceful-restart stale routes stay eligible (that is the point).
      if (slot_suppressed(idx, p)) continue;
      if (!best || better(r, *best)) best = r;
    }
  }
  return best;
}

bool Speaker::slot_suppressed(std::size_t idx, Prefix p) const {
  if (!options_.damping.enabled) return false;
  // One per candidate slot of a re-decision, damping-enabled runs only.
  const auto it = neighbors_[idx].damping.find(p);
  return it != neighbors_[idx].damping.end() && it->second.suppressed;
}

bool Speaker::is_suppressed(topo::AsIndex neighbor, Prefix p) const {
  return slot_suppressed(index_of(neighbor), p);
}

double Speaker::decayed_penalty(const DampingState& st,
                                util::TimePoint now) const {
  const double half_lives =
      (now - st.last_charge) / options_.damping.half_life;
  return st.penalty * std::exp2(-half_lives);
}

void Speaker::damping_charge(std::size_t idx, Prefix p) {
  SCION_DCHECK(options_.damping.enabled, "charge with damping off");
  const util::TimePoint now = clock_();
  // Entries appear the first time a prefix flaps on this adjacency;
  // steady-state charges hit the existing node.
  DampingState& st = neighbors_[idx].damping[p];
  st.penalty =
      std::min(decayed_penalty(st, now) + kPenaltyPerFlap, penalty_cap_);
  st.last_charge = now;
  if (!st.suppressed && st.penalty >= kSuppressThreshold) {
    st.suppressed = true;
    ++st.epoch;
    ++routes_suppressed_;
    SCION_METRIC_COUNT("bgp.routes_suppressed", 1);
    arm_reuse_timer(idx, p, st);
  }
}

void Speaker::arm_reuse_timer(std::size_t idx, Prefix p, DampingState& st) {
  // Deterministic reuse instant: when the penalty decays to the reuse
  // threshold (capped by max_suppress via the penalty ceiling). Ceil, not
  // truncate: a timer landing a sub-nanosecond early finds the penalty
  // still above threshold and re-arms for 0 ns, looping at one virtual
  // instant without ever decaying.
  const double half_lives = std::log2(st.penalty / kReuseThreshold);
  const auto delay = util::Duration::nanoseconds(
      static_cast<std::int64_t>(std::ceil(
          static_cast<double>(options_.damping.half_life.ns()) *
          std::max(half_lives, 0.0))));
  const std::uint32_t epoch = st.epoch;
  schedule_(delay, TimerKind::kDamping,
            [this, idx, p, epoch] { damping_reuse(idx, p, epoch); });
}

void Speaker::damping_reuse(std::size_t idx, Prefix p, std::uint32_t epoch) {
  const auto it = neighbors_[idx].damping.find(p);
  if (it == neighbors_[idx].damping.end()) return;
  DampingState& st = it->second;
  if (!st.suppressed || st.epoch != epoch) return;  // re-armed meanwhile
  const util::TimePoint now = clock_();
  if (decayed_penalty(st, now) > kReuseThreshold) {
    // Charged again while waiting; re-arm for the new decay horizon.
    st.penalty = decayed_penalty(st, now);
    st.last_charge = now;
    arm_reuse_timer(idx, p, st);
    return;
  }
  st.suppressed = false;
  ++st.epoch;
  ++routes_reused_;
  SCION_METRIC_COUNT("bgp.routes_reused", 1);
  reevaluate(p);  // the adjacency's route is eligible again
}

AsPath Speaker::make_export_path(const Route& best) const {
  auto path = std::make_shared<std::vector<topo::AsIndex>>();
  path->reserve(1 + best.length());
  path->push_back(self_);
  if (best.path) path->insert(path->end(), best.path->begin(), best.path->end());
  return path;
}

void Speaker::sync_neighbor(std::size_t idx, Prefix p,
                            const std::optional<Route>& best,
                            const AsPath& export_path) {
  NeighborState& n = neighbors_[idx];
  if (!n.up) return;
  const bool should = best.has_value() &&
                      may_export(best->learned_from, n.info.rel) &&
                      n.info.as != best->neighbor;
  const auto out_it = n.rib_out.find(p);
  if (should) {
    if (out_it != n.rib_out.end() && same_path(out_it->second, export_path)) {
      return;  // neighbor already has this exact route
    }
    n.rib_out[p] = export_path;
    n.pending[p] = export_path;
    arm_mrai(idx);
  } else if (out_it != n.rib_out.end()) {
    n.rib_out.erase(out_it);
    n.pending[p] = nullptr;  // withdraw
    arm_mrai(idx);
  } else {
    // Neither advertised nor to be advertised; drop any stale pending entry.
    n.pending.erase(p);
  }
}

void Speaker::reevaluate(Prefix p) {
  std::optional<Route> best = compute_best(p);
  const auto loc_it = loc_rib_.find(p);
  const bool had = loc_it != loc_rib_.end();
  const bool changed =
      best.has_value() != had ||
      (best.has_value() && had &&
       (!same_path(best->path, loc_it->second.path) ||
        best->neighbor != loc_it->second.neighbor));
  if (!changed) return;

  // Loc-RIB consistency: the winning route must be self-originated,
  // learned over a session that is still up, or a graceful-restart stale
  // survivor (session_down without GR flushes its Adj-RIB-In slots before
  // re-deciding; with GR the stale flag licenses the down session).
  SCION_DCHECK(!best || best->neighbor == self_ || best->stale ||
                   neighbors_[index_of(best->neighbor)].up,
               "best route learned from a session that is down");
  if (best) {
    loc_rib_[p] = *best;
  } else {
    loc_rib_.erase(p);
  }

  const AsPath export_path = best ? make_export_path(*best) : nullptr;
  for (std::size_t idx = 0; idx < neighbors_.size(); ++idx) {
    sync_neighbor(idx, p, best, export_path);
  }
}

// Once per delivered UPDATE. The RIB maps are the protocol state itself:
// per-event lookups and growth there are the decision process, not scratch
// churn, and the ordered containers are load-bearing for determinism (see
// the member comments).
void Speaker::handle_update(topo::AsIndex from, const BgpUpdateMsg& msg) {
  const std::size_t idx = index_of(from);
  NeighborState& n = neighbors_[idx];
  if (!n.up) return;
  SCION_METRIC_COUNT("bgp.updates_received", 1);
  SCION_METRIC_COUNT("bgp.prefixes_withdrawn", msg.withdrawn.size());
  SCION_METRIC_COUNT("bgp.prefixes_announced", msg.announced.size());

  for (Prefix p : msg.withdrawn) {
    const auto it = rib_in_.find(p);
    if (it == rib_in_.end() || !it->second[idx].path) continue;
    it->second[idx] = Route{};
    // A withdrawal of a previously held route is one flap (RFC 2439).
    if (options_.damping.enabled) damping_charge(idx, p);
    reevaluate(p);
  }

  if (!msg.announced.empty()) {
    SCION_CHECK(msg.path, "announcement without an AS path");
    if (contains(msg.path, self_)) return;  // AS-path loop, discard
    for (Prefix p : msg.announced) {
      auto [it, inserted] = rib_in_.try_emplace(p);
      // One slot table the first time a prefix is ever seen; steady-state
      // UPDATEs hit the existing row.
      if (inserted) it->second.resize(neighbors_.size());
      SCION_DCHECK(it->second.size() == neighbors_.size(),
                   "Adj-RIB-In slot table out of sync with neighbor set");
      // A path change over a held route is one flap; a fresh announcement
      // (including a graceful-restart refresh of the same path) is not.
      if (options_.damping.enabled && it->second[idx].path &&
          !it->second[idx].stale &&
          !same_path(it->second[idx].path, msg.path)) {
        damping_charge(idx, p);
      }
      it->second[idx] = Route{msg.path, n.info.rel, from};
      reevaluate(p);
    }
  }
  SCION_METRIC_GAUGE_MAX("bgp.loc_rib_routes", loc_rib_.size());
  SCION_METRIC_GAUGE_MAX("bgp.rib_in_prefixes", rib_in_.size());
}

void Speaker::session_down(topo::AsIndex neighbor, bool forwarding_preserved) {
  const std::size_t idx = index_of(neighbor);
  NeighborState& n = neighbors_[idx];
  if (!n.up) return;
  n.up = false;
  n.pending.clear();
  n.rib_out.clear();
  ++n.gr_epoch;

  // Graceful restart only helps when the data plane through the neighbor
  // still works (a process restart, not a link loss): retaining a stale
  // route through a dead link would mask live alternatives in the decision
  // process instead of preserving anything.
  if (options_.graceful_restart.enabled && forwarding_preserved) {
    // Preserve forwarding: mark this neighbor's routes stale instead of
    // flushing. They stay in the decision process; the stale timer flushes
    // them if the session never comes back.
    std::size_t retained = 0;
    for (auto& [p, slots] : rib_in_) {
      if (slots[idx].path && !slots[idx].stale) {
        slots[idx].stale = true;
        ++retained;
      }
    }
    stale_retained_ += retained;
    SCION_METRIC_COUNT("bgp.gr_stale_retained", retained);
    if (retained > 0) {
      const std::uint32_t epoch = n.gr_epoch;
      schedule_(options_.graceful_restart.stale_timer, TimerKind::kGrStale,
                [this, idx, epoch] { flush_stale(idx, epoch); });
    }
    return;
  }

  // Drop everything learned from this neighbor and re-decide. Each lost
  // route counts as one flap against its adjacency.
  for (auto& [p, slots] : rib_in_) {
    if (slots[idx].path) {
      slots[idx] = Route{};
      if (options_.damping.enabled) damping_charge(idx, p);
      reevaluate(p);
    }
  }
}

void Speaker::session_up(topo::AsIndex neighbor) {
  const std::size_t idx = index_of(neighbor);
  NeighborState& n = neighbors_[idx];
  if (n.up) return;
  n.up = true;
  ++n.gr_epoch;

  if (options_.graceful_restart.enabled) {
    // Re-sync: the peer replays its full table, refreshing stale routes as
    // the announcements land. Whatever is still stale once the replay
    // window closes no longer exists on the peer and must be swept.
    bool any_stale = false;
    for (const auto& [p, slots] : rib_in_) {
      if (slots[idx].stale) {
        any_stale = true;
        break;
      }
    }
    if (any_stale) {
      const std::uint32_t epoch = n.gr_epoch;
      schedule_(options_.graceful_restart.resync_flush_delay,
                TimerKind::kGrStale,
                [this, idx, epoch] { flush_stale(idx, epoch); });
    }
  }

  // Full table export towards the restored session.
  for (const auto& [p, best] : loc_rib_) {
    sync_neighbor(idx, p, best, make_export_path(best));
  }
}

void Speaker::flush_stale(std::size_t idx, std::uint32_t epoch) {
  NeighborState& n = neighbors_[idx];
  if (n.gr_epoch != epoch) return;  // session flipped since this was armed
  for (auto& [p, slots] : rib_in_) {
    if (slots[idx].stale) {
      slots[idx] = Route{};
      ++stale_expired_;
      SCION_METRIC_COUNT("bgp.gr_stale_expired", 1);
      reevaluate(p);
    }
  }
}

bool Speaker::session_is_up(topo::AsIndex neighbor) const {
  return neighbors_[index_of(neighbor)].up;
}

std::optional<Speaker::Route> Speaker::best(Prefix p) const {
  const auto it = loc_rib_.find(p);
  if (it == loc_rib_.end()) return std::nullopt;
  return it->second;
}

std::vector<Speaker::Route> Speaker::multipath(Prefix p) const {
  std::vector<Route> out;
  const auto best_it = loc_rib_.find(p);
  if (best_it == loc_rib_.end()) return out;
  const Route& best = best_it->second;
  if (best.neighbor == self_) {
    out.push_back(best);  // own prefix
    return out;
  }
  const auto it = rib_in_.find(p);
  if (it == rib_in_.end()) return out;
  for (std::size_t idx = 0; idx < neighbors_.size(); ++idx) {
    const Route& r = it->second[idx];
    if (!r.path) continue;
    if (slot_suppressed(idx, p)) continue;
    if (local_pref(r.learned_from) == local_pref(best.learned_from) &&
        r.length() == best.length()) {
      out.push_back(r);
    }
  }
  return out;
}

void Speaker::arm_mrai(std::size_t idx) {
  NeighborState& n = neighbors_[idx];
  if (n.mrai_armed) return;
  n.mrai_armed = true;
  const auto delay = util::Duration::nanoseconds(static_cast<std::int64_t>(
      static_cast<double>(kMrai.ns()) *
      rng_.uniform(1.0 - kMraiJitter, 1.0 + kMraiJitter)));
  schedule_(delay, TimerKind::kMrai, [this, idx] {
    neighbors_[idx].mrai_armed = false;
    flush(idx);
  });
}

void Speaker::flush(std::size_t idx) {
  NeighborState& n = neighbors_[idx];
  if (!n.up || n.pending.empty()) {
    n.pending.clear();
    return;
  }

  // Aggregate: announcements sharing an AS path go into one UPDATE;
  // withdrawals ride along with the first message (RFC 4271 allows both in
  // one UPDATE) or form their own if there is nothing to announce. Groups
  // are kept in first-seen order over the prefix-ordered pending map, so
  // the UPDATE sequence is a pure function of the pending set — keying the
  // groups by path pointer would let heap addresses order the messages.
  std::vector<BgpUpdateMsg> grouped;
  std::unordered_map<const void*, std::size_t> group_of_path;  // lookup only
  std::vector<Prefix> withdrawals;
  for (const auto& [p, path] : n.pending) {
    if (path) {
      const auto [it, inserted] =
          group_of_path.try_emplace(path.get(), grouped.size());
      if (inserted) {
        grouped.emplace_back();
        grouped.back().path = path;
      }
      // Prefixes arrive in ascending order from the ordered pending map.
      grouped[it->second].announced.push_back(p);
    } else {
      withdrawals.push_back(p);
    }
  }
  n.pending.clear();

  if (!withdrawals.empty()) {
    if (!grouped.empty()) {
      grouped.front().withdrawn = std::move(withdrawals);
    } else {
      BgpUpdateMsg msg;
      msg.withdrawn = std::move(withdrawals);
      ++updates_sent_;
      SCION_METRIC_COUNT("bgp.updates_sent", 1);
      send_(n.info.as, std::move(msg));
    }
  }
  for (BgpUpdateMsg& msg : grouped) {
    ++updates_sent_;
    SCION_METRIC_COUNT("bgp.updates_sent", 1);
    send_(n.info.as, std::move(msg));
  }
}

}  // namespace scion::bgp::reference
