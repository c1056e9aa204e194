// Event-level cost attribution: which *event kinds* consume the run?
//
// Every callback scheduled on sim::Simulator (and every message delivery in
// sim::Network) carries a static EventLabel ("beacon.propagate",
// "bgp.update.deliver", "timer.mrai", ...). The event loop attributes — per
// label — event counts, operator-new calls/bytes (obs::alloc_track), and
// handler wall time (routed through profiler_wall_now_ns(), the single
// sanctioned wall-clock site in obs/profile.cpp), plus a queue-depth
// timeline sampled on a deterministic virtual-time grid. The result lands
// in the `event_profile` section of every BENCH_*.json and feeds the
// Chrome-trace exporter (obs/chrome_trace.hpp).
//
// Determinism contract (the same one metrics/trace/profile obey):
//  * write-only — nothing in the simulation reads profiler state, so
//    attribution cannot perturb event order (proved in test_determinism
//    with profiling on and off);
//  * event/alloc counts and queue-depth samples are deterministic (same
//    seed, same code path); wall_ns values are wall times and are kept in
//    separate keys, exactly like the phase profile;
//  * per-Simulator EventShards merge into the global profiler with
//    commutative operations only (integer addition, per-timestamp max), so
//    results are byte-identical at any --jobs=N.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/thread_safety.hpp"

namespace scion::obs {

/// A static event-kind tag. Trivially copyable, 4 bytes; id 0 is the
/// reserved "(unlabeled)" default every un-annotated schedule gets.
class EventLabel {
 public:
  constexpr EventLabel() = default;
  constexpr std::uint32_t id() const { return id_; }
  constexpr bool is_default() const { return id_ == 0; }

 private:
  friend class EventProfiler;
  constexpr explicit EventLabel(std::uint32_t id) : id_{id} {}
  std::uint32_t id_{0};
};

namespace detail {
extern std::atomic<bool> g_event_profiling_enabled;
}  // namespace detail

/// Runtime switch checked once per event (relaxed load). Defaults to on;
/// the determinism suite proves on/off runs are byte-identical.
inline bool event_profiling_enabled() {
  return detail::g_event_profiling_enabled.load(std::memory_order_relaxed);
}

/// Interns `name` into the global label table and returns its handle.
/// Allocates only on the first sighting of a name — call sites keep the
/// result in a file-scope constant (see DESIGN.md's event-labeling recipe),
/// so the hot path never re-interns.
EventLabel event_label(std::string_view name);

/// Per-label accumulators. `events`, `allocs`, `alloc_bytes` are
/// deterministic; `wall_ns` is wall time (nondeterministic by nature) and
/// is emitted under separate keys.
struct LabelStats {
  std::uint64_t events{0};
  std::uint64_t allocs{0};
  std::uint64_t alloc_bytes{0};
  std::int64_t wall_ns{0};
};

/// One queue-depth observation at a virtual-time grid point.
struct QueueSample {
  std::int64_t t_ns{0};
  std::uint64_t depth{0};
};

/// Process-wide event-cost aggregate, fed by the per-Simulator EventShards.
class EventProfiler {
 public:
  static EventProfiler& global();

  /// Interns a label name (id 0 = "(unlabeled)" is pre-registered).
  /// Thread-safe; the table survives reset_counters() because call sites
  /// cache handles in file-scope constants.
  EventLabel intern(std::string_view name) SCION_EXCLUDES(mu_);

  /// Label table lookups (main thread / reporting only).
  std::size_t label_count() const SCION_EXCLUDES(mu_);
  std::string label_name(std::uint32_t id) const SCION_EXCLUDES(mu_);

  /// Merges one shard's per-label stats (indexed by label id; addition) and
  /// queue samples (per-timestamp max). Both operations commute, so merge
  /// order — and therefore --jobs=N scheduling — cannot change the result.
  void merge(const std::vector<LabelStats>& stats,
             const std::vector<QueueSample>& samples) SCION_EXCLUDES(mu_);

  /// Runtime enable/disable of the per-event record path (both orders are
  /// proven byte-identical in test_determinism).
  void set_enabled(bool on);
  bool enabled() const;

  /// Clears accumulated stats and queue samples but keeps the intern table
  /// (file-scope label constants hold baked-in ids). ObsSession calls this
  /// so every harness run starts from zero.
  void reset_counters() SCION_EXCLUDES(mu_);

  /// Totals across all labels; `attributed` excludes the default label.
  std::uint64_t total_events() const SCION_EXCLUDES(mu_);
  std::uint64_t attributed_events() const SCION_EXCLUDES(mu_);

  /// Top-k labels by allocation count, descending (ties: label name order).
  /// Used by check_alloc_budget to point a budget breach at its handler.
  std::vector<std::pair<std::string, std::uint64_t>> top_allocating_labels(
      std::size_t k) const SCION_EXCLUDES(mu_);

  /// Snapshot for the Chrome-trace exporter: (name, stats) sorted by name,
  /// plus the merged queue timeline sorted by time.
  std::vector<std::pair<std::string, LabelStats>> label_snapshot() const
      SCION_EXCLUDES(mu_);
  std::vector<QueueSample> queue_timeline() const SCION_EXCLUDES(mu_);

  /// The `event_profile` report section:
  /// {"enabled": ..., "total_events": ..., "attributed_events": ...,
  ///  "queue_samples": [{"t_ns":...,"depth":...}, ...],
  ///  "labels": [{"label":...,"events":...,"allocs":...,"alloc_bytes":...,
  ///              "wall_ns":...,"wall_s":...}, ...]}
  /// Labels sort by name; all keys except wall_ns/wall_s are deterministic.
  std::string to_json() const SCION_EXCLUDES(mu_);

 private:
  mutable util::Mutex mu_;
  // id -> name and name -> id halves of the intern table.
  std::vector<std::string> names_ SCION_GUARDED_BY(mu_);
  std::map<std::string, std::uint32_t, std::less<>> ids_
      SCION_GUARDED_BY(mu_);
  // id -> merged stats; t_ns -> max queue depth.
  std::vector<LabelStats> stats_ SCION_GUARDED_BY(mu_);
  std::map<std::int64_t, std::uint64_t> queue_ SCION_GUARDED_BY(mu_);
};

/// Per-Simulator accumulator: dense per-label counters plus a queue-depth
/// timeline on a deterministic virtual-time grid. No locking on the record
/// path — each Simulator is single-threaded; the only synchronization is
/// flush(), which folds the shard into the global profiler under its mutex
/// (once per run segment / destruction, never per event).
class EventShard {
 public:
  EventShard() = default;
  ~EventShard() { flush(); }

  EventShard(const EventShard&) = delete;
  EventShard& operator=(const EventShard&) = delete;

  /// Accumulates one executed event under `label`.
  void record(EventLabel label, std::uint64_t allocs,
              std::uint64_t alloc_bytes, std::int64_t wall_ns) {
    const std::uint32_t id = label.id();
    if (id >= stats_.size()) stats_.resize(id + 1);
    LabelStats& s = stats_[id];
    ++s.events;
    s.allocs += allocs;
    s.alloc_bytes += alloc_bytes;
    s.wall_ns += wall_ns;
  }

  /// Records the queue depth if virtual time crossed the next grid point.
  /// Grid timestamps are multiples of the sampling interval, so they merge
  /// stably across Simulators; when the timeline would exceed its cap the
  /// interval doubles and off-grid samples are dropped (bounded memory,
  /// still deterministic).
  void maybe_sample_queue(std::int64_t t_ns, std::uint64_t depth) {
    if (t_ns < next_sample_ns_) return;
    const std::int64_t grid = t_ns - t_ns % interval_ns_;
    samples_.push_back(QueueSample{grid, depth});
    next_sample_ns_ = grid + interval_ns_;
    if (samples_.size() >= kMaxSamples) decimate();
  }

  /// Folds the shard into EventProfiler::global() and clears it. Called at
  /// the end of every run segment and from the destructor.
  void flush();

 private:
  static constexpr std::size_t kMaxSamples = 512;

  void decimate() {
    interval_ns_ *= 2;
    std::size_t kept = 0;
    for (const QueueSample& s : samples_) {
      if (s.t_ns % interval_ns_ == 0) samples_[kept++] = s;
    }
    samples_.resize(kept);
  }

  std::vector<LabelStats> stats_;
  std::vector<QueueSample> samples_;
  std::int64_t next_sample_ns_{0};
  std::int64_t interval_ns_{100'000'000};  // 100 ms of virtual time
};

}  // namespace scion::obs
