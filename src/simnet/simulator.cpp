#include "simnet/simulator.hpp"

#include <algorithm>

#include "obs/alloc_track.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/check.hpp"

namespace scion::sim {

// Once per scheduled event: the heap, the slot table and the free list are
// the only permitted growth (amortized vector doubling, up to the queue's
// high-water mark), and Callback keeps closures inline.
void Simulator::schedule_at(TimePoint t, obs::EventLabel label, Callback fn) {
  SCION_CHECK(t >= now_, "cannot schedule events in the past");
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  queue_.push(Key{t, next_seq_++, slot, label});
  if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
}

void Simulator::schedule_after(Duration d, obs::EventLabel label,
                               Callback fn) {
  SCION_CHECK(d >= Duration::zero(), "negative delay");
  schedule_at(now_ + d, label, std::move(fn));
}

TimerId Simulator::schedule_periodic(TimePoint first, Duration period,
                                     obs::EventLabel label, Callback fn) {
  SCION_CHECK(period > Duration::zero(), "periodic event needs a positive period");
  const TimerId id{static_cast<std::uint64_t>(periodics_.size())};
  periodics_.push_back(Periodic{period, label, std::move(fn), false});
  schedule_at(first, label, [this, id, first] { fire_periodic(id, first); });
  return id;
}

void Simulator::fire_periodic(TimerId id, TimePoint when) {
  // `periodics_` is a deque, so this reference survives callbacks that
  // register new periodic timers (a vector reallocation would dangle it).
  Periodic& p = periodics_[id.value()];
  if (p.cancelled) return;
  p.fn();
  // Re-check after the callback: a timer that cancels its own id must not
  // leave a tombstone event in the queue (it would keep run() from draining
  // until the next period tick).
  if (p.cancelled) return;
  const TimePoint next = when + p.period;
  schedule_at(next, p.label, [this, id, next] { fire_periodic(id, next); });
}

void Simulator::cancel_periodic(TimerId id) {
  SCION_CHECK(id.value() < periodics_.size(), "unknown periodic event id");
  periodics_[id.value()].cancelled = true;
}

// Executes once per event — the innermost loop of every simulation.
void Simulator::pop_and_run() {
  const Key key = queue_.top();
  queue_.pop();
  // Moved out before it runs: the callback may schedule events, and those
  // may grow the slot table or reuse this slot.
  Callback fn = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  // The queue invariant every determinism claim rests on: virtual time only
  // moves forward, so same-time events run in scheduling (seq) order.
  SCION_CHECK(key.time >= now_, "event queue time went backwards");
  now_ = key.time;
  ++processed_;
  SCION_METRIC_COUNT("simnet.events_processed", 1);
  // Event-cost attribution: snapshot the thread's alloc counters and the
  // sanctioned wall clock around the handler, record the delta under the
  // event's label. Write-only (the shard feeds reports, never the
  // simulation), so runs are byte-identical with this on or off —
  // test_determinism proves it.
  if (obs::event_profiling_enabled()) {
    shard_.maybe_sample_queue(now_.ns(), queue_.size());
    const std::uint64_t allocs0 = obs::thread_allocs();
    const std::uint64_t bytes0 = obs::thread_alloc_bytes();
    const std::int64_t wall0 = obs::profiler_wall_now_ns();
    fn();
    shard_.record(key.label, obs::thread_allocs() - allocs0,
                  obs::thread_alloc_bytes() - bytes0,
                  obs::profiler_wall_now_ns() - wall0);
    return;
  }
  fn();
}

void Simulator::run() {
  while (!queue_.empty()) pop_and_run();
  publish_metrics();
  shard_.flush();
}

void Simulator::run_until(TimePoint end) {
  while (!queue_.empty() && queue_.top().time <= end) pop_and_run();
  now_ = std::max(now_, end);
  publish_metrics();
  shard_.flush();
}

// Write-only gauge export at the end of each run segment; never read back
// by simulation code, so telemetry cannot influence event order.
void Simulator::publish_metrics() const {
  SCION_METRIC_GAUGE_MAX("simnet.queue_high_water", queue_high_water_);
  SCION_METRIC_GAUGE_MAX("simnet.virtual_time_ns", now_.ns());
}

}  // namespace scion::sim
