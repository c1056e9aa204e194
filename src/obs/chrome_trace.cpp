#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/event_profile.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"

namespace scion::obs {

namespace {

constexpr int kWallPid = 1;
constexpr int kVirtualPid = 2;
constexpr int kLabelTid = 1000;
// How many event labels (by handler wall time, descending) get aggregate
// slices; the rest still appear in the event_profile JSON section.
constexpr std::size_t kTopKLabels = 12;

void append_metadata(JsonWriter& w, int pid, std::string_view what,
                     std::string_view name, int tid = 0) {
  w.begin_object();
  w.kv("name", what);
  w.kv("ph", "M");
  w.kv("pid", pid);
  if (what == "thread_name") w.kv("tid", tid);
  w.key("args").begin_object();
  w.kv("name", name);
  w.end_object();
  w.end_object();
}

}  // namespace

std::string chrome_trace_json(const PhaseProfiler& phases,
                              const EventProfiler& events) {
  const auto spans = phases.spans();
  auto labels = events.label_snapshot();
  const auto timeline = events.queue_timeline();

  // Rebase wall timestamps to the earliest span so ts values stay small.
  std::int64_t base_ns = 0;
  if (!spans.empty()) {
    base_ns = spans.front().start_ns;
    for (const auto& s : spans) base_ns = std::min(base_ns, s.start_ns);
  }

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();

  append_metadata(w, kWallPid, "process_name", "wall time");
  append_metadata(w, kVirtualPid, "process_name", "virtual time");
  append_metadata(w, kWallPid, "thread_name", "event labels (top-K)",
                  kLabelTid);

  for (const auto& s : spans) {
    w.begin_object();
    w.kv("name", std::string_view{s.name});
    w.kv("ph", "X");
    w.kv("pid", kWallPid);
    w.kv("tid", static_cast<std::int64_t>(s.thread_ordinal));
    w.kv("ts", static_cast<double>(s.start_ns - base_ns) / 1e3);
    w.kv("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.end_object();
  }

  // Top-K labels by handler wall time, laid end to end as aggregate slices
  // (an accumulated-cost view, not a timeline of individual events).
  std::sort(labels.begin(), labels.end(), [](const auto& a, const auto& b) {
    if (a.second.wall_ns != b.second.wall_ns) {
      return a.second.wall_ns > b.second.wall_ns;
    }
    return a.first < b.first;
  });
  if (labels.size() > kTopKLabels) labels.resize(kTopKLabels);
  double cursor_us = 0.0;
  for (const auto& [name, s] : labels) {
    const double dur_us = static_cast<double>(s.wall_ns) / 1e3;
    w.begin_object();
    w.kv("name", std::string_view{name});
    w.kv("ph", "X");
    w.kv("pid", kWallPid);
    w.kv("tid", kLabelTid);
    w.kv("ts", cursor_us);
    w.kv("dur", dur_us);
    w.key("args").begin_object();
    w.kv("events", s.events);
    w.kv("allocs", s.allocs);
    w.kv("alloc_bytes", s.alloc_bytes);
    w.end_object();
    w.end_object();
    cursor_us += dur_us;
  }

  for (const QueueSample& s : timeline) {
    w.begin_object();
    w.kv("name", "queue_depth");
    w.kv("ph", "C");
    w.kv("pid", kVirtualPid);
    w.kv("ts", static_cast<double>(s.t_ns) / 1e3);
    w.key("args").begin_object();
    w.kv("depth", s.depth);
    w.end_object();
    w.end_object();
  }

  w.end_array();
  w.kv("displayTimeUnit", "ms");
  w.end_object();
  return std::move(w).take();
}

bool write_chrome_trace(const std::string& path) {
  std::ofstream out{path};
  if (!out) {
    std::cerr << "obs: cannot open --chrome-trace-out file " << path << '\n';
    return false;
  }
  out << chrome_trace_json(PhaseProfiler::global(), EventProfiler::global())
      << '\n';
  return true;
}

}  // namespace scion::obs
