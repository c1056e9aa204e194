// Core comparison logic for tools/bench_diff — header-only so
// tests/test_bench_diff.cpp can exercise it without spawning the binary.
//
// Compares two scion-mpr-bench-v1 documents (a baseline and a current run)
// and classifies every difference:
//   - deterministic fields (figure scalars, metrics counters, per-phase call
//     counts, per-label event counts) gate EXACTLY: any drift fails,
//   - allocation counters gate with a tolerance band: increases beyond
//     --alloc-tolerance fail, decreases always pass,
//   - wall-time fields only warn unless --wall-tolerance is given, because
//     wall time is machine-dependent and must never fail a deterministic
//     gate by default,
//   - a current run whose event profile attributes fewer events than it ran
//     fails, even when the baseline has the same gap.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/report.hpp"

namespace scion::tools {

enum class DiffSeverity { kOk, kWarn, kFail };

inline const char* to_string(DiffSeverity s) {
  switch (s) {
    case DiffSeverity::kOk:
      return "ok";
    case DiffSeverity::kWarn:
      return "WARN";
    case DiffSeverity::kFail:
      return "FAIL";
  }
  return "?";
}

/// One reported difference (identical values are counted, not listed).
struct DiffEntry {
  DiffSeverity severity{DiffSeverity::kOk};
  std::string metric;    // dotted path, e.g. "scalars.beacons_sent"
  std::string baseline;  // rendered baseline value ("-" when absent)
  std::string current;   // rendered current value ("-" when absent)
  std::string note;      // human explanation of the verdict
};

struct DiffOptions {
  /// Allowed fractional increase for allocation counters (0.25 = +25%).
  double alloc_tolerance{0.25};
  /// Allowed fractional increase for wall-time fields; negative means wall
  /// regressions are warnings, never failures (the default).
  double wall_tolerance{-1.0};
};

/// Result of diffing one bench document pair.
struct DiffReport {
  std::string name;                // bench name (from the baseline doc)
  std::vector<DiffEntry> entries;  // warnings and failures only
  std::size_t compared{0};         // total comparisons performed
  std::size_t failures{0};
  std::size_t warnings{0};

  void add(DiffSeverity severity, std::string metric, std::string baseline,
           std::string current, std::string note) {
    if (severity == DiffSeverity::kFail) ++failures;
    if (severity == DiffSeverity::kWarn) ++warnings;
    if (severity != DiffSeverity::kOk) {
      entries.push_back(DiffEntry{severity, std::move(metric),
                                  std::move(baseline), std::move(current),
                                  std::move(note)});
    }
  }

  bool failed() const { return failures > 0; }
};

namespace diff_detail {

/// Renders a parsed JSON number without spurious ".000000" on integers.
inline std::string fmt_num(double v) {
  if (std::nearbyint(v) == v && std::abs(v) < 9.0e15) {
    return obs::fmt_i64(static_cast<std::int64_t>(v));
  }
  return obs::fmt_g(v, 6);
}

/// Exact gate: any numeric drift in a deterministic field is a failure.
inline void diff_exact(DiffReport& r, const std::string& metric, double base,
                       double cur) {
  ++r.compared;
  if (base == cur) return;
  r.add(DiffSeverity::kFail, metric, fmt_num(base), fmt_num(cur),
        "deterministic field changed");
}

/// Tolerance gate: `cur` may exceed `base` by at most `tolerance * base`
/// (absolute slack of `slack` covers near-zero baselines). Decreases pass.
/// With a negative tolerance the regression only warns.
inline void diff_band(DiffReport& r, const std::string& metric, double base,
                      double cur, double tolerance, double slack,
                      const char* what) {
  ++r.compared;
  if (cur <= base) return;
  const double allowed =
      tolerance < 0.0 ? -1.0 : base * (1.0 + tolerance) + slack;
  if (allowed >= 0.0 && cur <= allowed) return;
  const double pct = base > 0.0 ? (cur / base - 1.0) * 100.0 : 100.0;
  const std::string note = std::string{what} + " +" + obs::fmt_f(pct, 1) + "%";
  r.add(tolerance < 0.0 ? DiffSeverity::kWarn : DiffSeverity::kFail, metric,
        fmt_num(base), fmt_num(cur),
        tolerance < 0.0 ? note + " (wall time: warn only)" : note);
}

/// Diffs two JSON objects of numbers with the given per-key gate.
template <typename Gate>
void diff_number_map(DiffReport& r, const std::string& prefix,
                     const obs::JsonValue* base, const obs::JsonValue* cur,
                     Gate&& gate) {
  const bool have_base = base != nullptr && base->is_object();
  const bool have_cur = cur != nullptr && cur->is_object();
  if (have_base) {
    for (const auto& [key, bv] : base->as_object()) {
      if (!bv.is_number()) continue;
      const std::string metric = prefix + "." + key;
      const obs::JsonValue* cv = have_cur ? cur->find(key) : nullptr;
      if (cv == nullptr || !cv->is_number()) {
        ++r.compared;
        r.add(DiffSeverity::kFail, metric, fmt_num(bv.as_number()), "-",
              "missing from current run");
        continue;
      }
      gate(r, metric, bv.as_number(), cv->as_number());
    }
  }
  if (have_cur) {
    for (const auto& [key, cv] : cur->as_object()) {
      if (!cv.is_number()) continue;
      if (have_base && base->find(key) != nullptr) continue;
      ++r.compared;
      r.add(DiffSeverity::kWarn, prefix + "." + key, "-",
            fmt_num(cv.as_number()), "new metric (absent from baseline)");
    }
  }
}

/// Indexes an array of objects by a string member, e.g. phases by "phase".
inline void index_by(const obs::JsonValue* arr, const char* key,
                     std::vector<std::pair<std::string, const obs::JsonValue*>>*
                         out) {
  if (arr == nullptr || !arr->is_array()) return;
  for (const obs::JsonValue& e : arr->as_array()) {
    if (!e.is_object()) continue;
    const obs::JsonValue* name = e.find(key);
    if (name == nullptr || !name->is_string()) continue;
    out->emplace_back(name->as_string(), &e);
  }
}

inline const obs::JsonValue* lookup(
    const std::vector<std::pair<std::string, const obs::JsonValue*>>& index,
    const std::string& name) {
  for (const auto& [n, v] : index) {
    if (n == name) return v;
  }
  return nullptr;
}

inline double num_or(const obs::JsonValue* obj, const char* key,
                     double fallback) {
  if (obj == nullptr) return fallback;
  const obs::JsonValue* v = obj->find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

}  // namespace diff_detail

/// Diffs a baseline and a current bench document. Both must be parsed
/// scion-mpr-bench-v1 reports (obs_check validates shape; this assumes it).
inline DiffReport diff_bench_docs(const obs::JsonValue& baseline,
                                  const obs::JsonValue& current,
                                  const DiffOptions& opts = {}) {
  using namespace diff_detail;
  DiffReport r;
  const obs::JsonValue* name = baseline.find("name");
  if (name != nullptr && name->is_string()) r.name = name->as_string();

  const obs::JsonValue* cur_name = current.find("name");
  if (cur_name != nullptr && cur_name->is_string() && !r.name.empty() &&
      cur_name->as_string() != r.name) {
    r.add(DiffSeverity::kFail, "name", r.name, cur_name->as_string(),
          "comparing different benches");
    return r;
  }

  // Figure scalars: the headline deterministic results. Exact.
  diff_number_map(r, "scalars", baseline.find("scalars"),
                  current.find("scalars"),
                  [](DiffReport& rep, const std::string& m, double b,
                     double c) { diff_exact(rep, m, b, c); });

  // Invariant on the current run alone, whatever the baseline says: with
  // the event profiler on, every event must carry a named label.
  const obs::JsonValue* cur_profile = current.find("event_profile");
  const obs::JsonValue* profiling =
      cur_profile != nullptr ? cur_profile->find("enabled") : nullptr;
  if (profiling != nullptr && profiling->is_bool() && profiling->as_bool()) {
    ++r.compared;
    const double total = num_or(cur_profile, "total_events", 0.0);
    const double attributed = num_or(cur_profile, "attributed_events", 0.0);
    if (attributed < total) {
      r.add(DiffSeverity::kFail, "event_profile.unattributed_events", "0",
            fmt_num(total - attributed), "unattributed events");
    }
  }

  // Metrics counters are deterministic event tallies. Exact.
  const obs::JsonValue* base_metrics = baseline.find("metrics");
  const obs::JsonValue* cur_metrics = current.find("metrics");
  diff_number_map(
      r, "counters",
      base_metrics != nullptr ? base_metrics->find("counters") : nullptr,
      cur_metrics != nullptr ? cur_metrics->find("counters") : nullptr,
      [](DiffReport& rep, const std::string& m, double b, double c) {
        diff_exact(rep, m, b, c);
      });

  // Phases: call counts are deterministic; wall time is banded.
  std::vector<std::pair<std::string, const obs::JsonValue*>> base_phases;
  std::vector<std::pair<std::string, const obs::JsonValue*>> cur_phases;
  index_by(baseline.find("phases"), "phase", &base_phases);
  index_by(current.find("phases"), "phase", &cur_phases);
  for (const auto& [phase, bp] : base_phases) {
    const obs::JsonValue* cp = lookup(cur_phases, phase);
    if (cp == nullptr) {
      ++r.compared;
      r.add(DiffSeverity::kFail, "phases." + phase + ".calls",
            fmt_num(num_or(bp, "calls", 0.0)), "-",
            "phase missing from current run");
      continue;
    }
    diff_exact(r, "phases." + phase + ".calls", num_or(bp, "calls", 0.0),
               num_or(cp, "calls", 0.0));
    diff_band(r, "phases." + phase + ".allocs", num_or(bp, "allocs", 0.0),
              num_or(cp, "allocs", 0.0), opts.alloc_tolerance, 16.0,
              "alloc regression");
    diff_band(r, "phases." + phase + ".wall_ns", num_or(bp, "wall_ns", 0.0),
              num_or(cp, "wall_ns", 0.0), opts.wall_tolerance, 0.0,
              "wall regression");
  }

  // Event profile: per-label event counts are deterministic; allocs banded;
  // wall banded (warn-only by default).
  const obs::JsonValue* base_profile = baseline.find("event_profile");
  if (base_profile != nullptr && cur_profile != nullptr) {
    diff_exact(r, "event_profile.total_events",
               num_or(base_profile, "total_events", 0.0),
               num_or(cur_profile, "total_events", 0.0));
    diff_exact(r, "event_profile.attributed_events",
               num_or(base_profile, "attributed_events", 0.0),
               num_or(cur_profile, "attributed_events", 0.0));
    std::vector<std::pair<std::string, const obs::JsonValue*>> base_labels;
    std::vector<std::pair<std::string, const obs::JsonValue*>> cur_labels;
    index_by(base_profile->find("labels"), "label", &base_labels);
    index_by(cur_profile->find("labels"), "label", &cur_labels);
    for (const auto& [label, bl] : base_labels) {
      const obs::JsonValue* cl = lookup(cur_labels, label);
      const std::string prefix = "events." + label;
      if (cl == nullptr) {
        ++r.compared;
        r.add(DiffSeverity::kFail, prefix + ".events",
              fmt_num(num_or(bl, "events", 0.0)), "-",
              "event label missing from current run");
        continue;
      }
      diff_exact(r, prefix + ".events", num_or(bl, "events", 0.0),
                 num_or(cl, "events", 0.0));
      diff_band(r, prefix + ".allocs", num_or(bl, "allocs", 0.0),
                num_or(cl, "allocs", 0.0), opts.alloc_tolerance, 16.0,
                "alloc regression");
      diff_band(r, prefix + ".wall_ns", num_or(bl, "wall_ns", 0.0),
                num_or(cl, "wall_ns", 0.0), opts.wall_tolerance, 0.0,
                "wall regression");
    }
    for (const auto& [label, cl] : cur_labels) {
      if (lookup(base_labels, label) != nullptr) continue;
      ++r.compared;
      r.add(DiffSeverity::kWarn, "events." + label, "-",
            fmt_num(num_or(cl, "events", 0.0)),
            "new event label (absent from baseline)");
    }
  }

  return r;
}

/// Renders one or more diff reports as a single table (pass/warn/fail rows).
inline obs::Table diff_report_table(const std::vector<DiffReport>& reports) {
  obs::Table t{"Bench regression report: current run vs baseline",
               {obs::Column{"Verdict", obs::Align::kLeft, 8},
                obs::Column{"Bench", obs::Align::kLeft, 16},
                obs::Column{"Metric", obs::Align::kLeft, 32},
                obs::Column{"Baseline", obs::Align::kRight, 12},
                obs::Column{"Current", obs::Align::kRight, 12},
                obs::Column{"Note", obs::Align::kLeft, 30}}};
  for (const DiffReport& r : reports) {
    for (const DiffEntry& e : r.entries) {
      t.row({to_string(e.severity), r.name, e.metric, e.baseline, e.current,
             e.note});
    }
    if (r.entries.empty()) {
      t.row({"ok", r.name, "(all " + obs::fmt_u64(r.compared) + " comparisons)",
             "-", "-", "no regressions"});
    }
  }
  return t;
}

}  // namespace scion::tools
