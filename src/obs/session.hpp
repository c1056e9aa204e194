// ObsSession: one object that wires the whole telemetry layer into a
// harness binary (benches, the CLI, examples).
//
//   util::Flags flags{argc, argv};
//   obs::ObsSession session{"bench_fig5_overhead", flags, seed};
//   ... run the experiment ...
//   session.finish();   // also runs from the destructor
//
// Flags understood (all optional; telemetry stays silent without them):
//   --metrics-out=FILE   write the metrics document (manifest + registry +
//                        phase profile) as JSON on finish()
//   --trace-out=FILE     stream structured events as JSONL during the run
//   --trace-filter=CSV   category filter for the trace ("beacon,bgp";
//                        default "all"); an unknown category throws
//                        util::FlagError, with or without --trace-out
//   --chrome-trace-out=FILE  write a Chrome-trace/Perfetto JSON (phases +
//                        top-K event labels + queue-depth counters) on
//                        finish()
//
// The constructor opens all three files, so one that cannot be opened
// throws std::runtime_error naming it before anything runs. It also resets
// the global metrics registry and phase profiler so each harness run starts
// from zero.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>

#include "obs/manifest.hpp"
#include "obs/trace.hpp"

namespace scion::util {
class Flags;
}

namespace scion::obs {

class JsonWriter;

class ObsSession {
 public:
  ObsSession(std::string_view binary, const util::Flags& flags,
             std::uint64_t seed);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  const RunManifest& manifest() const { return manifest_; }
  bool tracing() const { return sink_ != nullptr; }

  /// The full metrics document as a JSON string:
  /// {"schema": "scion-mpr-metrics-v1", "manifest": {...},
  ///  "metrics": {...}, "phases": [...], "event_profile": {...}}
  std::string metrics_json() const;

  /// Writes the "manifest", "metrics", "phases" and "event_profile"
  /// members, in that order, into an already-open JSON object. The metrics
  /// document and every bench report share this writer.
  void append_run_json(JsonWriter& w) const;

  /// Writes --chrome-trace-out and --metrics-out (if given), closes all
  /// three files, and uninstalls the global trace sink. Returns false if a
  /// write failed (after one `obs: cannot write` line on stderr per file).
  /// Idempotent; also invoked by the destructor.
  bool finish();

 private:
  RunManifest manifest_;
  std::ofstream metrics_file_;
  std::ofstream chrome_trace_file_;
  std::ofstream trace_file_;
  std::unique_ptr<TraceSink> sink_;
  bool finished_{false};
  bool written_{true};
};

}  // namespace scion::obs
