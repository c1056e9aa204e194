// Counting allocator for per-phase allocation budgets, the repo's one gate
// on per-event cost.
//
// alloc_track.cpp replaces the global operator new/delete with a forwarding
// pair that bumps thread-local counters before delegating to malloc/free.
// ProfilePhase (obs/profile.hpp) snapshots the calling thread's counters at
// phase start and records the delta, so every BENCH_*.json "phases" entry
// carries "allocs"/"alloc_bytes" next to its wall time — the
// allocations-per-event budgets that tests/test_alloc_budget.cpp gates for
// the beaconing, control-plane, and BGP micro-runs.
//
// Determinism: counting is observational only. The counters never feed
// simulation state, virtual time, or RNG draws. The counters are
// thread-local: a phase's delta counts the phase's own thread, which is
// exact for the single-threaded simulation loops the budgets gate
// (parallel-region workers profile their own task phases).
//
// Not counted: the obs layer's own bookkeeping, which runs inside an
// UncountedAllocs scope — metric interning and shard growth, phase and span
// records (and a ProfilePhase's copy of its name), event-label interning and
// event-profile merges, and task-capture set-up and merges. That storage is
// shared and grows in whichever task gets there first, so counting it would
// make a phase's or label's count depend on the schedule, i.e. on --jobs.
// Trace formatting is the run's own work and stays counted.
//
// Sanitizer note: -fsanitize=address intercepts the malloc this forwards
// to, so the two compose, but ASan's own new/delete hooks are shadowed: an
// ASan build does not report new/delete mismatches. Every build installs
// the counting allocator, because the asan-ubsan CI leg gates the
// allocation budgets too.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace scion::obs {

/// Operator-new calls (scalar/array, throwing/nothrow/aligned) made by the
/// calling thread so far. Monotonic; subtract two snapshots to cost a
/// region.
std::uint64_t thread_allocs();

/// Bytes requested by those calls (requested, not malloc-rounded).
std::uint64_t thread_alloc_bytes();

/// Leaves the calling thread's allocations while it lives uncounted: on exit
/// it puts both counters back where they stood on entry, so the allocation
/// path itself does no extra work.
class UncountedAllocs {
 public:
  UncountedAllocs();
  ~UncountedAllocs();
  UncountedAllocs(const UncountedAllocs&) = delete;
  UncountedAllocs& operator=(const UncountedAllocs&) = delete;

 private:
  std::uint64_t allocs_;
  std::uint64_t alloc_bytes_;
};

struct AllocBudgetResult {
  bool ok{true};
  double per_event{0.0};
  /// On failure: names the phase, the per-event count, and the budget —
  /// the ctest gate prints this verbatim.
  std::string message;
};

/// Gates an allocations-per-event budget: ok iff allocs/events <= budget.
/// `events` of 0 passes only a zero-allocation phase.
AllocBudgetResult check_alloc_budget(std::string_view phase,
                                     std::uint64_t allocs,
                                     std::uint64_t events,
                                     double budget_per_event);

}  // namespace scion::obs
