// Unit tests for the bench regression comparator (tools/bench_diff_core.hpp).
//
// The comparator is the brain of tools/bench_diff, the gate ci.sh runs
// against the checked-in smoke baseline. Its verdict semantics are a
// contract: deterministic fields (figure scalars, series and tables,
// counters, gauges, histograms, phase calls, per-label event counts) fail
// on ANY drift; allocation counters fail only
// beyond the tolerance band; wall time warns unless a wall tolerance is
// explicitly requested; unattributed events in the current run always
// fail. These tests pin each verdict on small handwritten
// scion-mpr-bench-v1 documents.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "tools/bench_diff_core.hpp"

namespace scion::tools {
namespace {

// A minimal but fully-populated bench report. Tests derive variants by
// textual substitution so every case reads as "baseline vs baseline with
// one value changed".
constexpr const char* kBaseDoc = R"({
  "name": "fig5_overhead",
  "manifest": {"obs_enabled": true, "jobs": 1},
  "scalars": {"beacons": 120, "lookups": 7235},
  "series": {"lag:BGP": {"summary": "n=2", "curve": [[30, 0.5], [32, 1]]}},
  "tables": [{"title": "Overhead", "columns": ["Series", "Bytes"],
              "rows": [{"Series": "BGP", "Bytes": "1024"}]}],
  "metrics": {"counters": {"pcbs_received": 500, "updates_sent": 80}},
  "phases": [
    {"phase": "beaconing", "calls": 10, "wall_ns": 5000,
     "allocs": 100, "alloc_bytes": 4000}
  ],
  "event_profile": {
    "enabled": true,
    "total_events": 600,
    "attributed_events": 600,
    "queue_samples": [{"t_ns": 100000000, "depth": 4}],
    "labels": [
      {"label": "beacon.propagate", "events": 400, "allocs": 80,
       "alloc_bytes": 3000, "wall_ns": 1000, "wall_s": 0.000001}
    ]
  }
})";

obs::JsonValue parse(const std::string& text) {
  std::string error;
  auto doc = obs::parse_json(text, &error);
  EXPECT_TRUE(doc.has_value()) << error;
  return doc.has_value() ? *doc : obs::JsonValue{};
}

// Replaces the first occurrence of `from` (which must exist — tests break
// loudly if the base doc drifts away from a substitution).
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const auto at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

const DiffEntry* find_metric(const DiffReport& r, const std::string& metric) {
  for (const DiffEntry& e : r.entries) {
    if (e.metric == metric) return &e;
  }
  return nullptr;
}

TEST(BenchDiff, IdenticalDocsHaveNoFindings) {
  const obs::JsonValue doc = parse(kBaseDoc);
  const DiffReport r = diff_bench_docs(doc, doc);
  EXPECT_EQ(r.name, "fig5_overhead");
  EXPECT_GT(r.compared, 0u);
  EXPECT_EQ(r.failures, 0u);
  EXPECT_EQ(r.warnings, 0u);
  EXPECT_TRUE(r.entries.empty());
  EXPECT_FALSE(r.failed());
}

TEST(BenchDiff, ScalarDriftFailsNamingTheMetric) {
  const obs::JsonValue base = parse(kBaseDoc);
  const obs::JsonValue cur =
      parse(replaced(kBaseDoc, "\"lookups\": 7235", "\"lookups\": 7236"));
  const DiffReport r = diff_bench_docs(base, cur);
  EXPECT_TRUE(r.failed());
  const DiffEntry* e = find_metric(r, "scalars.lookups");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->severity, DiffSeverity::kFail);
  EXPECT_EQ(e->baseline, "7235");
  EXPECT_EQ(e->current, "7236");
  EXPECT_EQ(e->note, "deterministic field changed");
}

TEST(BenchDiff, CounterDriftFails) {
  const obs::JsonValue base = parse(kBaseDoc);
  const obs::JsonValue cur = parse(
      replaced(kBaseDoc, "\"pcbs_received\": 500", "\"pcbs_received\": 499"));
  const DiffReport r = diff_bench_docs(base, cur);
  EXPECT_TRUE(r.failed());
  const DiffEntry* e = find_metric(r, "counters.pcbs_received");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->severity, DiffSeverity::kFail);
}

TEST(BenchDiff, MissingScalarFailsAndNewScalarWarns) {
  const obs::JsonValue base = parse(kBaseDoc);
  const obs::JsonValue cur =
      parse(replaced(kBaseDoc, "\"lookups\": 7235", "\"probes\": 7"));
  const DiffReport r = diff_bench_docs(base, cur);
  const DiffEntry* missing = find_metric(r, "scalars.lookups");
  ASSERT_NE(missing, nullptr);
  EXPECT_EQ(missing->severity, DiffSeverity::kFail);
  EXPECT_EQ(missing->current, "-");
  const DiffEntry* added = find_metric(r, "scalars.probes");
  ASSERT_NE(added, nullptr);
  EXPECT_EQ(added->severity, DiffSeverity::kWarn);
}

// The printed figure (CDF series, tables) and the registry's gauges and
// histograms gate exactly, leaf by leaf, like the scalars and counters.
TEST(BenchDiff, SeriesTableGaugeAndHistogramDriftFails) {
  const std::string doc = replaced(
      kBaseDoc, "\"updates_sent\": 80}",
      "\"updates_sent\": 80},\n"
      "    \"gauges\": {\"store_occupancy\": 66},\n"
      "    \"histograms\": {\"wire_bytes\": {\"bounds\": [1, 2], "
      "\"bucket_counts\": [0, 3, 1], \"count\": 4, \"sum\": 9.5}}");
  const obs::JsonValue base = parse(doc);
  EXPECT_FALSE(diff_bench_docs(base, base).failed());

  struct Drift {
    const char* from;
    const char* to;
    const char* metric;
  };
  for (const Drift& d : std::vector<Drift>{
           {"\"Bytes\": \"1024\"", "\"Bytes\": \"1025\"",
            "tables[0].rows[0].Bytes"},
           {"[32, 1]", "[33, 1]", "series.lag:BGP.curve[1][0]"},
           {"\"store_occupancy\": 66", "\"store_occupancy\": 67",
            "gauges.store_occupancy"},
           {"\"sum\": 9.5", "\"sum\": 9.25", "histograms.wire_bytes.sum"}}) {
    const DiffReport r =
        diff_bench_docs(base, parse(replaced(doc, d.from, d.to)));
    EXPECT_EQ(r.failures, 1u) << d.metric;
    const DiffEntry* e = find_metric(r, d.metric);
    ASSERT_NE(e, nullptr) << d.metric;
    EXPECT_EQ(e->severity, DiffSeverity::kFail);
    EXPECT_EQ(e->note, "deterministic field changed");
  }

  // A table row only the current run has warns; one it lacks fails.
  const std::string row = "{\"Series\": \"BGP\", \"Bytes\": \"1024\"}";
  const obs::JsonValue two_rows = parse(replaced(
      doc, row, row + ", {\"Series\": \"SCION\", \"Bytes\": \"64\"}"));
  const DiffReport grown = diff_bench_docs(base, two_rows);
  EXPECT_FALSE(grown.failed());
  const DiffEntry* added = find_metric(grown, "tables[0].rows[1]");
  ASSERT_NE(added, nullptr);
  EXPECT_EQ(added->severity, DiffSeverity::kWarn);
  const DiffReport shrunk = diff_bench_docs(two_rows, base);
  const DiffEntry* missing = find_metric(shrunk, "tables[0].rows[1]");
  ASSERT_NE(missing, nullptr);
  EXPECT_EQ(missing->severity, DiffSeverity::kFail);
  EXPECT_EQ(missing->note, "missing from current run");
}

TEST(BenchDiff, PhaseCallDriftFails) {
  const obs::JsonValue base = parse(kBaseDoc);
  const obs::JsonValue cur =
      parse(replaced(kBaseDoc, "\"calls\": 10", "\"calls\": 11"));
  const DiffReport r = diff_bench_docs(base, cur);
  EXPECT_TRUE(r.failed());
  const DiffEntry* e = find_metric(r, "phases.beaconing.calls");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->severity, DiffSeverity::kFail);
}

TEST(BenchDiff, PhaseWallIncreaseOnlyWarnsByDefault) {
  const obs::JsonValue base = parse(kBaseDoc);
  const obs::JsonValue cur =
      parse(replaced(kBaseDoc, "\"wall_ns\": 5000", "\"wall_ns\": 50000"));
  const DiffReport r = diff_bench_docs(base, cur);
  EXPECT_FALSE(r.failed());
  const DiffEntry* e = find_metric(r, "phases.beaconing.wall_ns");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->severity, DiffSeverity::kWarn);
  EXPECT_NE(e->note.find("wall time: warn only"), std::string::npos);

  // An explicit wall tolerance turns the same regression into a failure.
  DiffOptions opts;
  opts.wall_tolerance = 0.5;
  const DiffReport gated = diff_bench_docs(base, cur, opts);
  EXPECT_TRUE(gated.failed());
  const DiffEntry* g = find_metric(gated, "phases.beaconing.wall_ns");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->severity, DiffSeverity::kFail);
}

TEST(BenchDiff, PhaseAllocIncreaseGatesOnToleranceBand) {
  const obs::JsonValue base = parse(kBaseDoc);
  // +25% of 100 plus the 16-alloc slack allows up to 141.
  const obs::JsonValue within =
      parse(replaced(kBaseDoc, "\"allocs\": 100", "\"allocs\": 141"));
  EXPECT_FALSE(diff_bench_docs(base, within).failed());

  const obs::JsonValue beyond =
      parse(replaced(kBaseDoc, "\"allocs\": 100", "\"allocs\": 142"));
  const DiffReport r = diff_bench_docs(base, beyond);
  EXPECT_TRUE(r.failed());
  const DiffEntry* e = find_metric(r, "phases.beaconing.allocs");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->severity, DiffSeverity::kFail);
  EXPECT_NE(e->note.find("alloc regression"), std::string::npos);

  // Decreases always pass, however large.
  const obs::JsonValue fewer =
      parse(replaced(kBaseDoc, "\"allocs\": 100", "\"allocs\": 1"));
  EXPECT_FALSE(diff_bench_docs(base, fewer).failed());
}

TEST(BenchDiff, LabelEventCountDriftFails) {
  const obs::JsonValue base = parse(kBaseDoc);
  const obs::JsonValue cur =
      parse(replaced(kBaseDoc, "\"events\": 400", "\"events\": 401"));
  const DiffReport r = diff_bench_docs(base, cur);
  EXPECT_TRUE(r.failed());
  const DiffEntry* e = find_metric(r, "events.beacon.propagate.events");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->severity, DiffSeverity::kFail);
}

TEST(BenchDiff, EventProfileTotalsGateExactly) {
  const obs::JsonValue base = parse(kBaseDoc);
  const obs::JsonValue cur = parse(
      replaced(kBaseDoc, "\"total_events\": 600", "\"total_events\": 601"));
  const DiffReport r = diff_bench_docs(base, cur);
  EXPECT_TRUE(r.failed());
  EXPECT_NE(find_metric(r, "event_profile.total_events"), nullptr);
}

// Unattributed events fail on the current run alone: a baseline that
// already has the same gap does not excuse it.
TEST(BenchDiff, UnattributedEventsFailWhateverTheBaseline) {
  const std::string gap = replaced(kBaseDoc, "\"attributed_events\": 600",
                                   "\"attributed_events\": 590");
  const DiffReport r = diff_bench_docs(parse(gap), parse(gap));
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.failures, 1u);
  const DiffEntry* e = find_metric(r, "event_profile.unattributed_events");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->severity, DiffSeverity::kFail);
  EXPECT_EQ(e->current, "10");
  EXPECT_EQ(e->note, "unattributed events");

  // With the profiler off the totals carry no attribution claim.
  const std::string off =
      replaced(gap, "\"enabled\": true", "\"enabled\": false");
  EXPECT_FALSE(diff_bench_docs(parse(off), parse(off)).failed());
}

TEST(BenchDiff, MissingLabelFailsNewLabelWarns) {
  const obs::JsonValue base = parse(kBaseDoc);
  const obs::JsonValue cur = parse(replaced(
      kBaseDoc, "\"label\": \"beacon.propagate\"", "\"label\": \"bgp.flap\""));
  const DiffReport r = diff_bench_docs(base, cur);
  EXPECT_TRUE(r.failed());
  const DiffEntry* missing = find_metric(r, "events.beacon.propagate.events");
  ASSERT_NE(missing, nullptr);
  EXPECT_EQ(missing->severity, DiffSeverity::kFail);
  EXPECT_NE(missing->note.find("missing"), std::string::npos);
  const DiffEntry* added = find_metric(r, "events.bgp.flap");
  ASSERT_NE(added, nullptr);
  EXPECT_EQ(added->severity, DiffSeverity::kWarn);
}

// The counter gate has no bypass: a report that claims telemetry was off
// and carries no metrics still fails on every baseline counter.
TEST(BenchDiff, ObsDisabledManifestCannotSkipCounterGate) {
  const obs::JsonValue base = parse(kBaseDoc);
  const std::string no_metrics = replaced(
      kBaseDoc,
      "\"metrics\": {\"counters\": {\"pcbs_received\": 500, "
      "\"updates_sent\": 80}},\n",
      "");
  const obs::JsonValue cur = parse(replaced(
      no_metrics, "\"obs_enabled\": true", "\"obs_enabled\": false"));
  const DiffReport r = diff_bench_docs(base, cur);
  EXPECT_TRUE(r.failed());
  for (const char* counter :
       {"counters.pcbs_received", "counters.updates_sent"}) {
    const DiffEntry* e = find_metric(r, counter);
    ASSERT_NE(e, nullptr) << counter;
    EXPECT_EQ(e->severity, DiffSeverity::kFail);
    EXPECT_EQ(e->note, "missing from current run");
  }
}

TEST(BenchDiff, DifferentBenchNamesRefuseToCompare) {
  const obs::JsonValue base = parse(kBaseDoc);
  const obs::JsonValue cur = parse(replaced(
      kBaseDoc, "\"name\": \"fig5_overhead\"", "\"name\": \"fig6a\""));
  const DiffReport r = diff_bench_docs(base, cur);
  EXPECT_TRUE(r.failed());
  const DiffEntry* e = find_metric(r, "name");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->note, "comparing different benches");
}

TEST(BenchDiff, ReportTableRendersFindingsAndCleanRuns) {
  const obs::JsonValue base = parse(kBaseDoc);
  const obs::JsonValue cur =
      parse(replaced(kBaseDoc, "\"lookups\": 7235", "\"lookups\": 9999"));
  DiffReport clean = diff_bench_docs(base, base);
  DiffReport dirty = diff_bench_docs(base, cur);
  const std::string text = diff_report_table({clean, dirty}).to_text();
  EXPECT_NE(text.find("no regressions"), std::string::npos) << text;
  EXPECT_NE(text.find("FAIL"), std::string::npos) << text;
  EXPECT_NE(text.find("scalars.lookups"), std::string::npos) << text;
  EXPECT_NE(text.find("9999"), std::string::npos) << text;
}

}  // namespace
}  // namespace scion::tools
