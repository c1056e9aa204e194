// obs_check: schema validator for the telemetry artifacts the simulator
// emits — metrics documents (--metrics-out), structured trace streams
// (--trace-out), and bench reports (--bench-out). CI runs a smoke bench
// with all three flags and then this checker over the outputs, so a broken
// writer (missing manifest key, malformed JSONL line, wrong schema tag)
// fails the build instead of silently producing unparseable artifacts.
//
// Usage:
//   obs_check [--metrics <file>] [--bench <file>]
//             [--trace <file>] [--expect-cat <csv>]
//             [--chrome-trace <file>]
//
// --chrome-trace validates a Chrome-trace export (--chrome-trace-out):
// traceEvents array shape, known phase types, required timing fields.
//
// --expect-cat restricts a trace stream: every event's "cat" must be one of
// the comma-separated names and at least one event must be present (this is
// how the --trace-filter plumbing is validated end to end).
//
// Exit codes: 0 all artifacts valid, 1 validation failure, 2 usage or I/O
// error.
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "util/flags.hpp"

namespace {

using scion::obs::JsonValue;

// Failure tally for this single-threaded checker binary.
// simlint:allow(mutable-global)
int g_failures = 0;

void fail(const std::string& artifact, const std::string& message) {
  std::fprintf(stderr, "obs_check: %s: %s\n", artifact.c_str(),
               message.c_str());
  ++g_failures;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = std::move(buf).str();
  return true;
}

/// `obj.key` must exist with the given shape; reports and returns nullptr
/// otherwise.
const JsonValue* require(const JsonValue& obj, const std::string& artifact,
                         const std::string& key,
                         bool (JsonValue::*shape)() const,
                         const char* shape_name) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) {
    fail(artifact, "missing key \"" + key + "\"");
    return nullptr;
  }
  if (!(v->*shape)()) {
    fail(artifact, "key \"" + key + "\" is not " + shape_name);
    return nullptr;
  }
  return v;
}

void check_manifest(const JsonValue& doc, const std::string& artifact) {
  const JsonValue* manifest =
      require(doc, artifact, "manifest", &JsonValue::is_object, "an object");
  if (manifest == nullptr) return;
  require(*manifest, artifact, "binary", &JsonValue::is_string, "a string");
  require(*manifest, artifact, "seed", &JsonValue::is_number, "a number");
  require(*manifest, artifact, "flags", &JsonValue::is_object, "an object");
  require(*manifest, artifact, "build_type", &JsonValue::is_string,
          "a string");
  require(*manifest, artifact, "git_sha", &JsonValue::is_string, "a string");
  require(*manifest, artifact, "sanitizers", &JsonValue::is_string,
          "a string");
  require(*manifest, artifact, "checked", &JsonValue::is_bool, "a bool");
}

void check_metrics_block(const JsonValue& doc, const std::string& artifact) {
  const JsonValue* metrics =
      require(doc, artifact, "metrics", &JsonValue::is_object, "an object");
  if (metrics != nullptr) {
    require(*metrics, artifact, "counters", &JsonValue::is_object,
            "an object");
    require(*metrics, artifact, "gauges", &JsonValue::is_object, "an object");
    require(*metrics, artifact, "histograms", &JsonValue::is_object,
            "an object");
  }
  const JsonValue* phases =
      require(doc, artifact, "phases", &JsonValue::is_array, "an array");
  if (phases != nullptr) {
    for (const JsonValue& p : phases->as_array()) {
      if (!p.is_object()) {
        fail(artifact, "phase entry is not an object");
        continue;
      }
      require(p, artifact, "phase", &JsonValue::is_string, "a string");
      require(p, artifact, "calls", &JsonValue::is_number, "a number");
      require(p, artifact, "wall_ns", &JsonValue::is_number, "a number");
      require(p, artifact, "wall_s", &JsonValue::is_number, "a number");
    }
  }
}

void check_event_profile(const JsonValue& doc, const std::string& artifact) {
  const JsonValue* profile = require(doc, artifact, "event_profile",
                                     &JsonValue::is_object, "an object");
  if (profile == nullptr) return;
  require(*profile, artifact, "enabled", &JsonValue::is_bool, "a bool");
  require(*profile, artifact, "total_events", &JsonValue::is_number,
          "a number");
  require(*profile, artifact, "attributed_events", &JsonValue::is_number,
          "a number");
  const JsonValue* samples = require(*profile, artifact, "queue_samples",
                                     &JsonValue::is_array, "an array");
  if (samples != nullptr) {
    for (const JsonValue& s : samples->as_array()) {
      if (!s.is_object()) {
        fail(artifact, "queue sample is not an object");
        continue;
      }
      require(s, artifact, "t_ns", &JsonValue::is_number, "a number");
      require(s, artifact, "depth", &JsonValue::is_number, "a number");
    }
  }
  const JsonValue* labels =
      require(*profile, artifact, "labels", &JsonValue::is_array, "an array");
  if (labels != nullptr) {
    std::string prev;
    for (const JsonValue& l : labels->as_array()) {
      if (!l.is_object()) {
        fail(artifact, "label entry is not an object");
        continue;
      }
      const JsonValue* name =
          require(l, artifact, "label", &JsonValue::is_string, "a string");
      require(l, artifact, "events", &JsonValue::is_number, "a number");
      require(l, artifact, "allocs", &JsonValue::is_number, "a number");
      require(l, artifact, "alloc_bytes", &JsonValue::is_number, "a number");
      require(l, artifact, "wall_ns", &JsonValue::is_number, "a number");
      require(l, artifact, "wall_s", &JsonValue::is_number, "a number");
      if (name != nullptr) {
        // Sorted label order is part of the determinism contract.
        if (!prev.empty() && !(prev < name->as_string())) {
          fail(artifact, "label \"" + name->as_string() +
                             "\" out of sorted order (after \"" + prev + "\")");
        }
        prev = name->as_string();
      }
    }
  }
}

/// Chrome-trace document: {"traceEvents": [...], "displayTimeUnit": "ms"};
/// every entry needs name/ph/pid, and "X"/"C" entries need a numeric ts.
void check_chrome_trace(const std::string& path) {
  const std::string artifact = "chrome-trace " + path;
  std::string text;
  if (!read_file(path, &text)) {
    fail(artifact, "cannot read file");
    return;
  }
  std::string error;
  const auto doc = scion::obs::parse_json(text, &error);
  if (!doc) {
    fail(artifact, "parse error: " + error);
    return;
  }
  require(*doc, artifact, "displayTimeUnit", &JsonValue::is_string,
          "a string");
  const JsonValue* events = require(*doc, artifact, "traceEvents",
                                    &JsonValue::is_array, "an array");
  if (events == nullptr) return;
  std::size_t index = 0;
  for (const JsonValue& e : events->as_array()) {
    const std::string where = artifact + " event #" + std::to_string(index++);
    if (!e.is_object()) {
      fail(where, "trace event is not an object");
      continue;
    }
    require(e, where, "name", &JsonValue::is_string, "a string");
    const JsonValue* ph =
        require(e, where, "ph", &JsonValue::is_string, "a string");
    require(e, where, "pid", &JsonValue::is_number, "a number");
    if (ph == nullptr) continue;
    const std::string& kind = ph->as_string();
    if (kind != "X" && kind != "C" && kind != "M") {
      fail(where, "unexpected phase type \"" + kind + "\"");
      continue;
    }
    if (kind == "X" || kind == "C") {
      require(e, where, "ts", &JsonValue::is_number, "a number");
    }
    if (kind == "X") {
      require(e, where, "dur", &JsonValue::is_number, "a number");
    }
  }
}

void check_schema_tag(const JsonValue& doc, const std::string& artifact,
                      const std::string& expected) {
  const JsonValue* schema =
      require(doc, artifact, "schema", &JsonValue::is_string, "a string");
  if (schema != nullptr && schema->as_string() != expected) {
    fail(artifact, "schema is \"" + schema->as_string() + "\", expected \"" +
                       expected + "\"");
  }
}

void check_metrics_doc(const std::string& path) {
  const std::string artifact = "metrics " + path;
  std::string text;
  if (!read_file(path, &text)) {
    fail(artifact, "cannot read file");
    return;
  }
  std::string error;
  const auto doc = scion::obs::parse_json(text, &error);
  if (!doc) {
    fail(artifact, "parse error: " + error);
    return;
  }
  check_schema_tag(*doc, artifact, "scion-mpr-metrics-v1");
  check_manifest(*doc, artifact);
  check_metrics_block(*doc, artifact);
  check_event_profile(*doc, artifact);
}

void check_bench_doc(const std::string& path) {
  const std::string artifact = "bench " + path;
  std::string text;
  if (!read_file(path, &text)) {
    fail(artifact, "cannot read file");
    return;
  }
  std::string error;
  const auto doc = scion::obs::parse_json(text, &error);
  if (!doc) {
    fail(artifact, "parse error: " + error);
    return;
  }
  check_schema_tag(*doc, artifact, "scion-mpr-bench-v1");
  require(*doc, artifact, "name", &JsonValue::is_string, "a string");
  check_manifest(*doc, artifact);
  check_metrics_block(*doc, artifact);
  check_event_profile(*doc, artifact);
  const JsonValue* scalars =
      require(*doc, artifact, "scalars", &JsonValue::is_object, "an object");
  if (scalars != nullptr) {
    for (const auto& [name, v] : scalars->as_object()) {
      if (!v.is_number()) fail(artifact, "scalar \"" + name + "\" not numeric");
    }
  }
  require(*doc, artifact, "series", &JsonValue::is_object, "an object");
  require(*doc, artifact, "tables", &JsonValue::is_array, "an array");
}

void check_trace_stream(const std::string& path,
                        const std::string& expect_cats_csv) {
  const std::string artifact = "trace " + path;
  std::string text;
  if (!read_file(path, &text)) {
    fail(artifact, "cannot read file");
    return;
  }

  std::set<std::string> allowed;
  std::istringstream cats{expect_cats_csv};
  for (std::string cat; std::getline(cats, cat, ',');) {
    if (!cat.empty()) allowed.insert(cat);
  }

  std::size_t events = 0;
  std::size_t line_no = 0;
  std::istringstream lines{text};
  for (std::string line; std::getline(lines, line);) {
    ++line_no;
    if (line.empty()) continue;
    const std::string where = artifact + ":" + std::to_string(line_no);
    std::string error;
    const auto event = scion::obs::parse_json(line, &error);
    if (!event) {
      fail(where, "parse error: " + error);
      continue;
    }
    if (!event->is_object()) {
      fail(where, "event is not an object");
      continue;
    }
    ++events;
    require(*event, where, "t", &JsonValue::is_number, "a number");
    const JsonValue* cat =
        require(*event, where, "cat", &JsonValue::is_string, "a string");
    require(*event, where, "ev", &JsonValue::is_string, "a string");
    if (cat != nullptr && !allowed.empty() &&
        allowed.find(cat->as_string()) == allowed.end()) {
      fail(where, "category \"" + cat->as_string() +
                      "\" outside the expected filter set");
    }
  }
  if (!allowed.empty() && events == 0) {
    fail(artifact, "no events, but --expect-cat requires at least one");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const scion::util::Flags flags{argc, argv};
  const std::string metrics = flags.get("metrics", "");
  const std::string bench = flags.get("bench", "");
  const std::string trace = flags.get("trace", "");
  const std::string chrome_trace = flags.get("chrome-trace", "");
  const std::string expect_cat = flags.get("expect-cat", "");

  if (metrics.empty() && bench.empty() && trace.empty() &&
      chrome_trace.empty()) {
    std::fprintf(stderr,
                 "usage: obs_check [--metrics <file>] [--bench <file>]\n"
                 "                 [--trace <file>] [--expect-cat <csv>]\n"
                 "                 [--chrome-trace <file>]\n");
    return 2;
  }

  if (!metrics.empty()) check_metrics_doc(metrics);
  if (!bench.empty()) check_bench_doc(bench);
  if (!trace.empty()) check_trace_stream(trace, expect_cat);
  if (!chrome_trace.empty()) check_chrome_trace(chrome_trace);

  if (g_failures > 0) {
    std::fprintf(stderr, "obs_check: %d failure(s)\n", g_failures);
    return 1;
  }
  // The validator's verdict is its product, not simulation output.
  std::printf("obs_check: all artifacts valid\n");  // simlint:allow(raw-output)
  return 0;
}
