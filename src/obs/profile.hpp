// Wall-clock phase profiling: where does a run's real time go?
//
// ProfilePhase is an RAII scope around one pipeline stage (topology
// generation, beaconing, BGP, analysis). On destruction the elapsed wall
// time is accumulated into the process-wide PhaseProfiler under the phase's
// name; the ObsSession / bench report dumps the table as JSON.
//
// This file's .cpp is the ONLY sanctioned wall-clock site in the tree (one
// simlint:allow(wall-clock) on the single steady_clock read). Determinism
// proof: wall-clock values flow exclusively into PhaseProfiler's own
// accumulators and from there into emitted reports; no simulation code ever
// reads PhaseProfiler state and virtual time never depends on it, so
// same-seed simulation output is byte-identical with or without profiling
// (test_determinism).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace scion::obs {

class PhaseProfiler {
 public:
  struct Phase {
    std::uint64_t calls{0};
    std::int64_t wall_ns{0};
    /// Calling-thread operator-new calls/bytes inside the phase, summed
    /// over calls. Unlike wall_ns these ARE deterministic (same code path,
    /// same counts), which is what lets test_alloc_budget gate
    /// allocations-per-event budgets.
    /// Nested phases attribute to the innermost active phase: a parent's
    /// counters exclude what its children already claimed. The profiler's
    /// own bookkeeping (names, the phase map, the span log) is not counted.
    std::uint64_t allocs{0};
    std::uint64_t alloc_bytes{0};
  };

  /// One closed ProfilePhase interval, kept (bounded) for the Chrome-trace
  /// exporter. Wall-clock data only; never determinism-compared.
  struct Span {
    std::string name;
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    std::uint32_t thread_ordinal{0};
  };

  static PhaseProfiler& global();

  /// Thread-safe: phases may close on worker threads during a parallel
  /// region (the accumulators are coarse per-stage scopes, not hot-path).
  /// Call counts stay deterministic across --jobs values; wall times are
  /// wall times and never feed determinism-compared output.
  void record(std::string_view name, std::int64_t wall_ns,
              std::uint64_t allocs = 0, std::uint64_t alloc_bytes = 0);
  /// Logs one closed phase interval for the Chrome-trace export. Capped at
  /// kMaxSpans (further spans still accumulate via record(), they just stop
  /// appearing as individual trace slices).
  void record_span(std::string_view name, std::int64_t start_ns,
                   std::int64_t end_ns, std::uint32_t thread_ordinal);
  /// Main thread only, with no parallel region in flight: returns the map
  /// unlocked.
  const std::map<std::string, Phase, std::less<>>& phases() const {
    return phases_;
  }
  /// Snapshot of the span log (main thread / reporting only).
  std::vector<Span> spans() const;
  void reset();

  /// [{"phase": "beaconing", "calls": 2, "wall_ns": ..., "wall_s": ...,
  ///   "allocs": ..., "alloc_bytes": ...}, ...]
  std::string to_json() const;

 private:
  static constexpr std::size_t kMaxSpans = 4096;

  mutable std::mutex mu_;
  std::map<std::string, Phase, std::less<>> phases_;
  std::vector<Span> spans_;
};

/// The single sanctioned wall-clock read in the tree (implemented in
/// profile.cpp next to its simlint:allow). ProfilePhase and the event loop's
/// EventProfiler instrumentation both route through it; the values flow only
/// into write-only profiler accumulators, never back into simulation state.
std::int64_t profiler_wall_now_ns();

/// True while a ProfilePhase is open on the calling thread.
bool phase_open_on_this_thread();

class ProfilePhase {
 public:
  explicit ProfilePhase(std::string_view name);
  ~ProfilePhase();

  /// Ends the phase early (before scope exit); idempotent.
  ///
  /// Nesting contract: phases on one thread form a LIFO stack; allocations
  /// are attributed to the *innermost* active phase (a parent's counters
  /// exclude its children's). Phases must stop in reverse order of
  /// construction on a given thread (scope-based RAII guarantees this).
  void stop();

  ProfilePhase(const ProfilePhase&) = delete;
  ProfilePhase& operator=(const ProfilePhase&) = delete;

 private:
  std::string name_;
  std::int64_t start_ns_;
  std::uint64_t start_allocs_;
  std::uint64_t start_alloc_bytes_;
  /// The phase this one nested inside (same thread), if any; children add
  /// their full allocation delta here so the parent can subtract it.
  ProfilePhase* parent_{nullptr};
  std::uint64_t child_allocs_{0};
  std::uint64_t child_alloc_bytes_{0};
  bool stopped_{false};
};

}  // namespace scion::obs
