// Core comparison logic for tools/bench_diff — header-only so
// tests/test_bench_diff.cpp can exercise it without spawning the binary.
//
// Compares two scion-mpr-bench-v1 documents (a baseline and a current run)
// and classifies every difference:
//   - deterministic fields gate EXACTLY: any drift fails. They are the
//     figure's scalars, CDF series and tables, the metrics registry's
//     counters, gauges and histograms (compared leaf by leaf; a missing
//     entry fails, a new one warns), per-phase call counts and per-label
//     event counts,
//   - allocation counters gate with a tolerance band: increases beyond
//     --alloc-tolerance fail, decreases always pass,
//   - wall-time fields only warn unless --wall-tolerance is given, because
//     wall time is machine-dependent and must never fail a deterministic
//     gate by default,
//   - a current run whose event profile attributes fewer events than it ran
//     fails, even when the baseline has the same gap.
#pragma once

#include <algorithm>
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

/// A JSON value as a report cell: numbers as fmt_num, strings quoted,
/// containers elided.
inline std::string render(const obs::JsonValue& v) {
  if (v.is_number()) return fmt_num(v.as_number());
  if (v.is_string()) return "\"" + v.as_string() + "\"";
  if (v.is_bool()) return v.as_bool() ? "true" : "false";
  if (v.is_null()) return "null";
  return v.is_array() ? "[...]" : "{...}";
}

/// Exact gate over a JSON subtree: every leaf must match. A member or
/// element the current run lacks fails; one only the current run has warns.
inline void diff_tree(DiffReport& r, const std::string& path,
                      const obs::JsonValue& base, const obs::JsonValue& cur) {
  const auto missing = [&r](const std::string& p, const obs::JsonValue& b) {
    ++r.compared;
    r.add(DiffSeverity::kFail, p, render(b), "-", "missing from current run");
  };
  const auto added = [&r](const std::string& p, const obs::JsonValue& c) {
    ++r.compared;
    r.add(DiffSeverity::kWarn, p, "-", render(c),
          "new metric (absent from baseline)");
  };
  if (base.is_object() && cur.is_object()) {
    for (const auto& [key, bv] : base.as_object()) {
      const obs::JsonValue* cv = cur.find(key);
      if (cv == nullptr) {
        missing(path + "." + key, bv);
      } else {
        diff_tree(r, path + "." + key, bv, *cv);
      }
    }
    for (const auto& [key, cv] : cur.as_object()) {
      if (base.find(key) == nullptr) added(path + "." + key, cv);
    }
  } else if (base.is_array() && cur.is_array()) {
    const obs::JsonValue::Array& b = base.as_array();
    const obs::JsonValue::Array& c = cur.as_array();
    for (std::size_t i = 0; i < std::max(b.size(), c.size()); ++i) {
      const std::string p = path + "[" + std::to_string(i) + "]";
      if (i >= c.size()) {
        missing(p, b[i]);
      } else if (i >= b.size()) {
        added(p, c[i]);
      } else {
        diff_tree(r, p, b[i], c[i]);
      }
    }
  } else if (base.is_number() && cur.is_number()) {
    diff_exact(r, path, base.as_number(), cur.as_number());
  } else {
    ++r.compared;
    if (render(base) != render(cur)) {
      r.add(DiffSeverity::kFail, path, render(base), render(cur),
            "deterministic field changed");
    }
  }
}

/// diff_tree over a report section either document may lack: an absent
/// section compares as an empty object, so each member of the other side is
/// reported.
inline void diff_section(DiffReport& r, const std::string& path,
                         const obs::JsonValue* base,
                         const obs::JsonValue* cur) {
  static const obs::JsonValue kAbsent{obs::JsonValue::Object{}};
  diff_tree(r, path, base != nullptr ? *base : kAbsent,
            cur != nullptr ? *cur : kAbsent);
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

  // The figure as the bench printed it: headline scalars, CDF series and
  // rendered tables. Exact.
  for (const char* section : {"scalars", "series", "tables"}) {
    diff_section(r, section, baseline.find(section), current.find(section));
  }

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

  // The metrics registry: counters are event tallies, gauges high-water
  // marks and histograms value distributions, all deterministic. Exact.
  const obs::JsonValue* base_metrics = baseline.find("metrics");
  const obs::JsonValue* cur_metrics = current.find("metrics");
  for (const char* kind : {"counters", "gauges", "histograms"}) {
    diff_section(r, kind,
                 base_metrics != nullptr ? base_metrics->find(kind) : nullptr,
                 cur_metrics != nullptr ? cur_metrics->find(kind) : nullptr);
  }

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
