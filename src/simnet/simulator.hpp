// Discrete-event simulation core (the ns-3 substitute).
//
// A Simulator owns a virtual clock and an event queue. Events scheduled for
// the same instant execute in scheduling order (a monotonically increasing
// sequence number breaks ties), which keeps runs fully deterministic.
//
// The queue heap-orders small keys; each event's callback stays in a slot
// table until the event runs, so reordering the heap never moves a closure.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "obs/event_profile.hpp"
#include "util/small_fn.hpp"
#include "util/time.hpp"
#include "util/types.hpp"

namespace scion::sim {

using util::Duration;
using util::TimePoint;

/// Handle for a periodic event registered with schedule_periodic(). Strong:
/// a timer id is not a node, channel, or sequence number, and a raw integer
/// does not convert into one.
using TimerId = util::StrongId<struct TimerIdTag, std::uint64_t>;

/// Sentinel for "no timer" (mirrors kInvalidNode / kInvalidChannel).
inline constexpr TimerId kInvalidTimer{
    std::numeric_limits<std::uint64_t>::max()};

/// Event-driven virtual-time scheduler.
class Simulator {
 public:
  /// Move-only with 96 bytes of inline capture storage: enough for every
  /// event-loop closure in the tree (the largest is Network's delivery
  /// lambda, `this` + an 80-byte Message, pinned by a static_assert
  /// there), so scheduling an event never allocates. Larger captures fall
  /// back to the heap and show up in the allocation budgets
  /// (test_alloc_budget).
  using Callback = util::SmallFn<96>;

  /// Current virtual time.
  TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `t` under the event-cost attribution
  /// `label` (see obs/event_profile.hpp and DESIGN.md's event-labeling
  /// recipe); `t` must not be in the past.
  void schedule_at(TimePoint t, obs::EventLabel label, Callback fn);

  /// Unlabeled form: the event lands under the "(unlabeled)" default label.
  /// Simulation pipelines must use the labeled overload: the attribution
  /// checks in tests/test_alloc_budget.cpp and tools/bench_diff fail on any
  /// unlabeled event.
  void schedule_at(TimePoint t, Callback fn) {
    schedule_at(t, obs::EventLabel{}, std::move(fn));
  }

  /// Schedules `fn` after `d` (>= 0) from now.
  void schedule_after(Duration d, obs::EventLabel label, Callback fn);
  void schedule_after(Duration d, Callback fn) {
    schedule_after(d, obs::EventLabel{}, std::move(fn));
  }

  /// Schedules `fn` every `period` starting at `first`, until the simulation
  /// stops. Returns an id usable with cancel_periodic(). Every firing (and
  /// the internal re-arm event) is attributed to `label`.
  ///
  /// Re-entrancy contract (audited; regression tests in test_simnet):
  ///  * a callback may cancel its *own* id: the current firing completes and
  ///    nothing further is scheduled (no tombstone event lingers in the
  ///    queue, so run() drains immediately).
  ///  * a callback may cancel another timer or register new periodic timers;
  ///    the registry uses a deque, so outstanding references stay valid when
  ///    a callback grows it.
  TimerId schedule_periodic(TimePoint first, Duration period,
                            obs::EventLabel label, Callback fn);
  TimerId schedule_periodic(TimePoint first, Duration period, Callback fn) {
    return schedule_periodic(first, period, obs::EventLabel{}, std::move(fn));
  }

  /// Stops future firings of a periodic event. Safe to call from any
  /// callback, including the timer's own.
  void cancel_periodic(TimerId id);

  /// Runs until the queue drains.
  void run();

  /// Runs while events exist with time <= `end`; afterwards now() == end
  /// (or later if already past it).
  void run_until(TimePoint end);

  /// Total callbacks executed so far.
  std::uint64_t events_processed() const { return processed_; }

  /// Events currently pending.
  std::size_t pending() const { return queue_.size(); }

  /// Largest queue depth observed since construction.
  std::size_t queue_high_water() const { return queue_high_water_; }

 private:
  /// What the heap orders: 24 bytes per pending event, so a sift moves
  /// keys, not the callbacks they point at.
  struct Key {
    TimePoint time;
    std::uint64_t seq;
    /// Index of the event's callback in `slots_`.
    std::uint32_t slot;
    /// Cost-attribution tag.
    obs::EventLabel label;
  };
  static_assert(sizeof(Key) == 24, "heap keys must stay small");
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  struct Periodic {
    Duration period;
    obs::EventLabel label;
    Callback fn;
    bool cancelled{false};
  };

  void pop_and_run();
  void fire_periodic(TimerId id, TimePoint when);
  void publish_metrics() const;

  TimePoint now_{TimePoint::origin()};
  std::uint64_t next_seq_{0};
  std::uint64_t processed_{0};
  std::size_t queue_high_water_{0};
  std::priority_queue<Key, std::vector<Key>, Later> queue_;
  /// Callbacks of pending events by Key::slot. pop_and_run() moves one out
  /// just before it runs and returns its slot to `free_slots_`, so the
  /// table and the free list stop growing at the queue's high-water mark.
  std::vector<Callback> slots_;
  std::vector<std::uint32_t> free_slots_;
  // Deque, not vector: fire_periodic holds a reference across the user
  // callback, and a callback that registers a new periodic timer must not
  // invalidate it (a vector's push_back reallocation would).
  std::deque<Periodic> periodics_;
  // Per-simulator event-cost accumulator; folded into
  // obs::EventProfiler::global() at the end of each run segment and on
  // destruction.
  obs::EventShard shard_;
};

}  // namespace scion::sim
