// Chrome-trace / Perfetto JSON export of a run's profiling data.
//
// Renders three views into one `chrome://tracing`-loadable document
// ({"traceEvents": [...], "displayTimeUnit": "ms"}):
//  * pid 1 ("wall time"): every closed ProfilePhase interval as an "X"
//    (complete) slice on its recording thread's track — the flamegraph-style
//    view of where real time went;
//  * pid 1, tid 1000 ("event labels (top-K)"): the top-K event labels by
//    handler wall time laid end to end as aggregate slices, so the event
//    kinds dominating the run are visible next to the phases;
//  * pid 2 ("virtual time"): the queue-depth timeline as "C" (counter)
//    events on the deterministic sim-time grid.
//
// Wall-clock data only — the export is diagnostic output and is never
// determinism-compared (bench_diff ignores it; the deterministic counters
// live in the `event_profile` report section instead).
#pragma once

#include <string>

namespace scion::obs {

class PhaseProfiler;
class EventProfiler;

/// Renders the trace document from the two global profilers' current state.
std::string chrome_trace_json(const PhaseProfiler& phases,
                              const EventProfiler& events);

/// Writes chrome_trace_json() to `path`; returns false (after printing to
/// stderr) if the file cannot be opened.
bool write_chrome_trace(const std::string& path);

}  // namespace scion::obs
