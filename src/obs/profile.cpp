#include "obs/profile.hpp"

#include <atomic>
#include <chrono>

#include "obs/alloc_track.hpp"
#include "obs/json.hpp"

namespace scion::obs {

PhaseProfiler& PhaseProfiler::global() {
  // The process-wide phase totals: internally locked, so phases may close
  // on worker threads. simlint:allow(mutable-global)
  static PhaseProfiler profiler;
  return profiler;
}

void PhaseProfiler::record(std::string_view name, std::int64_t wall_ns,
                           std::uint64_t allocs, std::uint64_t alloc_bytes) {
  const UncountedAllocs uncounted;
  const std::lock_guard lock{mu_};
  auto it = phases_.find(name);
  if (it == phases_.end()) {
    it = phases_.emplace(std::string{name}, Phase{}).first;
  }
  ++it->second.calls;
  it->second.wall_ns += wall_ns;
  it->second.allocs += allocs;
  it->second.alloc_bytes += alloc_bytes;
}

void PhaseProfiler::record_span(std::string_view name, std::int64_t start_ns,
                                std::int64_t end_ns,
                                std::uint32_t thread_ordinal) {
  const UncountedAllocs uncounted;
  const std::lock_guard lock{mu_};
  if (spans_.size() >= kMaxSpans) return;
  spans_.push_back(Span{std::string{name}, start_ns, end_ns, thread_ordinal});
}

std::vector<PhaseProfiler::Span> PhaseProfiler::spans() const {
  const std::lock_guard lock{mu_};
  return spans_;
}

void PhaseProfiler::reset() {
  const std::lock_guard lock{mu_};
  phases_.clear();
  spans_.clear();
}

std::string PhaseProfiler::to_json() const {
  const std::lock_guard lock{mu_};
  JsonWriter w;
  w.begin_array();
  for (const auto& [name, p] : phases_) {
    w.begin_object();
    w.kv("phase", std::string_view{name});
    w.kv("calls", p.calls);
    w.kv("wall_ns", p.wall_ns);
    w.kv("wall_s", static_cast<double>(p.wall_ns) / 1e9);
    w.kv("allocs", p.allocs);
    w.kv("alloc_bytes", p.alloc_bytes);
    w.end_object();
  }
  w.end_array();
  return std::move(w).take();
}

// The single sanctioned wall-clock read in the tree. Safe for determinism:
// the value only ever flows into PhaseProfiler / EventProfiler
// accumulators, which nothing in the simulation reads back (see the header
// comment for the full proof).
std::int64_t profiler_wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(  // simlint:allow(wall-clock)
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Per-thread phase stack head (innermost active phase) for nested alloc
// attribution, plus a stable small ordinal per thread for trace slices.
// simlint:allow(mutable-global) — strictly thread-private phase stack head.
thread_local ProfilePhase* t_current_phase = nullptr;

std::uint32_t thread_ordinal() {
  // Monotonic ordinal source; atomic, and the value feeds only wall-clock
  // trace slices, never simulation state. simlint:allow(mutable-global)
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

std::string uncounted_copy(std::string_view name) {
  const UncountedAllocs uncounted;
  return std::string{name};
}

}  // namespace

bool phase_open_on_this_thread() { return t_current_phase != nullptr; }

ProfilePhase::ProfilePhase(std::string_view name)
    : name_{uncounted_copy(name)},
      start_ns_{profiler_wall_now_ns()},
      start_allocs_{thread_allocs()},
      start_alloc_bytes_{thread_alloc_bytes()},
      parent_{t_current_phase} {
  t_current_phase = this;
}

void ProfilePhase::stop() {
  if (stopped_) return;
  stopped_ = true;
  const std::int64_t end_ns = profiler_wall_now_ns();
  // Raw delta over the whole interval; what the children already claimed is
  // subtracted so allocations land in the innermost active phase only.
  const std::uint64_t raw_allocs = thread_allocs() - start_allocs_;
  const std::uint64_t raw_bytes = thread_alloc_bytes() - start_alloc_bytes_;
  PhaseProfiler::global().record(name_, end_ns - start_ns_,
                                 raw_allocs - child_allocs_,
                                 raw_bytes - child_alloc_bytes_);
  PhaseProfiler::global().record_span(name_, start_ns_, end_ns,
                                      thread_ordinal());
  if (t_current_phase == this) t_current_phase = parent_;
  if (parent_ != nullptr) {
    parent_->child_allocs_ += raw_allocs;
    parent_->child_alloc_bytes_ += raw_bytes;
  }
}

ProfilePhase::~ProfilePhase() { stop(); }

}  // namespace scion::obs
