#include "obs/event_profile.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace scion::obs {

namespace detail {
// Runtime profiling switch; atomic with relaxed ordering, and on/off runs
// are proven byte-identical. simlint:allow(mutable-global)
std::atomic<bool> g_event_profiling_enabled{true};
}  // namespace detail

EventProfiler& EventProfiler::global() {
  // The process-wide label table and totals: internally locked, and each
  // Simulator records into its own EventShard. simlint:allow(mutable-global)
  static EventProfiler profiler;
  return profiler;
}

EventLabel EventProfiler::intern(std::string_view name) {
  SCION_CHECK(!name.empty(), "event label name must not be empty");
  const std::lock_guard lock{mu_};
  if (names_.empty()) {
    names_.emplace_back("(unlabeled)");
    ids_.emplace(names_.front(), 0u);
  }
  if (const auto it = ids_.find(name); it != ids_.end()) {
    return EventLabel{it->second};
  }
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return EventLabel{id};
}

EventLabel event_label(std::string_view name) {
  return EventProfiler::global().intern(name);
}

std::size_t EventProfiler::label_count() const {
  const std::lock_guard lock{mu_};
  return names_.empty() ? 1 : names_.size();
}

std::string EventProfiler::label_name(std::uint32_t id) const {
  const std::lock_guard lock{mu_};
  if (names_.empty() && id == 0) return "(unlabeled)";
  SCION_CHECK(id < names_.size(), "unknown event label id");
  return names_[id];
}

void EventProfiler::merge(const std::vector<LabelStats>& stats,
                          const std::vector<QueueSample>& samples) {
  const std::lock_guard lock{mu_};
  if (stats_.size() < stats.size()) stats_.resize(stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) {
    stats_[i].events += stats[i].events;
    stats_[i].allocs += stats[i].allocs;
    stats_[i].alloc_bytes += stats[i].alloc_bytes;
    stats_[i].wall_ns += stats[i].wall_ns;
  }
  for (const QueueSample& s : samples) {
    std::uint64_t& depth = queue_[s.t_ns];
    depth = std::max(depth, s.depth);
  }
}

void EventProfiler::set_enabled(bool on) {
  detail::g_event_profiling_enabled.store(on, std::memory_order_relaxed);
}

bool EventProfiler::enabled() const { return event_profiling_enabled(); }

void EventProfiler::reset_counters() {
  const std::lock_guard lock{mu_};
  for (LabelStats& s : stats_) s = LabelStats{};
  queue_.clear();
}

std::uint64_t EventProfiler::total_events() const {
  const std::lock_guard lock{mu_};
  std::uint64_t total = 0;
  for (const LabelStats& s : stats_) total += s.events;
  return total;
}

std::uint64_t EventProfiler::attributed_events() const {
  const std::lock_guard lock{mu_};
  std::uint64_t total = 0;
  for (std::size_t i = 1; i < stats_.size(); ++i) total += stats_[i].events;
  return total;
}

std::vector<std::pair<std::string, std::uint64_t>>
EventProfiler::top_allocating_labels(std::size_t k) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  {
    const std::lock_guard lock{mu_};
    for (std::size_t i = 0; i < stats_.size(); ++i) {
      if (stats_[i].allocs == 0) continue;
      out.emplace_back(i < names_.size() ? names_[i] : "(unlabeled)",
                       stats_[i].allocs);
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<std::pair<std::string, LabelStats>>
EventProfiler::label_snapshot() const {
  std::vector<std::pair<std::string, LabelStats>> out;
  {
    const std::lock_guard lock{mu_};
    for (std::size_t i = 0; i < stats_.size(); ++i) {
      if (stats_[i].events == 0) continue;
      out.emplace_back(i < names_.size() ? names_[i] : "(unlabeled)",
                       stats_[i]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<QueueSample> EventProfiler::queue_timeline() const {
  const std::lock_guard lock{mu_};
  std::vector<QueueSample> out;
  out.reserve(queue_.size());
  for (const auto& [t_ns, depth] : queue_) {
    out.push_back(QueueSample{t_ns, depth});
  }
  return out;
}

std::string EventProfiler::to_json() const {
  const auto labels = label_snapshot();
  const auto timeline = queue_timeline();
  std::uint64_t total = 0;
  std::uint64_t attributed = 0;
  for (const auto& [name, s] : labels) {
    total += s.events;
    if (name != "(unlabeled)") attributed += s.events;
  }
  JsonWriter w;
  w.begin_object();
  w.kv("enabled", enabled());
  w.kv("total_events", total);
  w.kv("attributed_events", attributed);
  w.key("queue_samples").begin_array();
  for (const QueueSample& s : timeline) {
    w.begin_object();
    w.kv("t_ns", s.t_ns);
    w.kv("depth", s.depth);
    w.end_object();
  }
  w.end_array();
  w.key("labels").begin_array();
  for (const auto& [name, s] : labels) {
    w.begin_object();
    w.kv("label", std::string_view{name});
    w.kv("events", s.events);
    w.kv("allocs", s.allocs);
    w.kv("alloc_bytes", s.alloc_bytes);
    w.kv("wall_ns", s.wall_ns);
    w.kv("wall_s", static_cast<double>(s.wall_ns) / 1e9);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).take();
}

void EventShard::flush() {
  if (stats_.empty() && samples_.empty()) return;
  EventProfiler::global().merge(stats_, samples_);
  stats_.clear();
  samples_.clear();
}

}  // namespace scion::obs
