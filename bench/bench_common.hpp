// Shared main() for the bench binaries.
//
// Every binary runs standalone with no arguments at the default scale and
// accepts the Scale flags (--paper, --core-ases=..., --scale=...).
// bench_main parses the flags, calls the bench's `run` once —
// which runs the experiment, prints the figure and fills the report — and
// prints the run's wall time as one line on stderr, so stdout stays
// byte-identical across runs and --jobs values.
//
// Telemetry: every bench owns an obs::ObsSession, so the common flags
// --metrics-out / --trace-out / --trace-filter / --chrome-trace-out work on
// all of them, and a machine-readable report BENCH_<name>.json (manifest +
// metrics + phase profile + event profile + per-figure data) is written
// after the run:
//   --bench-out=FILE   report path (default BENCH_<name>.json; "none"
//                      disables the report)
//
// A mistake on the command line makes bench_main print one line per problem
// on stderr, write no report and return 2: an argument that is not a
// --key[=value] flag (`bench_<name>: unexpected argument <arg>`, before
// anything runs), a value that does not parse (`bench_<name>: invalid
// value for --<key>: <value>`), or a flag the run never read
// (`bench_<name>: unknown flag --<key>`). Google-benchmark's own
// --benchmark_* flags (bench_micro) are read by google-benchmark, not
// through util::Flags, and are exempt. An output file that cannot be
// written (--trace-out before the run; --bench-out, --metrics-out and
// --chrome-trace-out after it) or an input that cannot be read (a
// --faults scenario) makes it return 1.
#pragma once

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exec/task_pool.hpp"
#include "experiments/scale.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/session.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"

namespace scion::exp {

/// Per-figure data a bench binary contributes to its BENCH_<name>.json:
/// headline scalars, CDF series, and rendered tables.
class BenchReport {
 public:
  void scalar(const std::string& name, double value) {
    scalars_.emplace_back(name, value);
  }

  /// One scalar `<key>:<series>` per entry, in order.
  void scalars(const std::string& series,
               std::initializer_list<std::pair<const char*, double>> values) {
    for (const auto& [key, value] : values) scalar(key + (':' + series), value);
  }

  void cdf(const std::string& name, const util::EmpiricalCdf& c,
           std::size_t points) {
    obs::JsonWriter w;
    obs::append_cdf_json(w, c, points);
    series_.emplace_back(name, std::move(w).take());
  }

  void table(const obs::Table& t) {
    obs::JsonWriter w;
    t.append_json(w);
    tables_.push_back(std::move(w).take());
  }

  /// Appends the "scalars", "series" and "tables" members to an open object.
  void append_json(obs::JsonWriter& w) const {
    w.key("scalars").begin_object();
    for (const auto& [name, value] : scalars_) w.kv(name, value);
    w.end_object();
    w.key("series").begin_object();
    for (const auto& [name, json] : series_) w.key(name).value_raw(json);
    w.end_object();
    w.key("tables").begin_array();
    for (const std::string& json : tables_) w.value_raw(json);
    w.end_array();
  }

 private:
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, std::string>> series_;
  std::vector<std::string> tables_;
};

/// {"schema": "scion-mpr-bench-v1", "name": ..., "manifest": {...},
///  "metrics": {...}, "phases": [...], "event_profile": {...},
///  "scalars": {...}, "series": {...}, "tables": [...]}
inline std::string bench_report_json(const std::string& name,
                                     const obs::ObsSession& session,
                                     const BenchReport& report) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "scion-mpr-bench-v1");
  w.kv("name", name);
  session.append_run_json(w);
  report.append_json(w);
  w.end_object();
  return std::move(w).take();
}

/// A bench's experiment: builds its inputs, runs, prints the figure and
/// fills the report.
using BenchRun =
    std::function<void(const util::Flags&, const Scale&, BenchReport&)>;

/// Runs `run` once, then (unless --bench-out=none) writes the JSON report.
/// Returns 2 without a report on a stray argument, a malformed flag value or
/// a flag nothing read, and 1 when an input or output file fails.
inline int bench_main(const std::string& name, int argc, char** argv,
                      const BenchRun& run) {
  const std::string program = "bench_" + name;
  const util::Flags flags{argc, argv};
  if (!flags.strays().empty()) return util::reject_unused(flags, program);
  try {
    const Scale scale = Scale::from_flags(flags);
    // --jobs=N parallelizes the experiment's independent units (default 1 =
    // serial). ObsSession records explicitly-set flags into the manifest, so
    // the job count lands in BENCH_<name>.json; results are byte-identical
    // for any value (tests/test_determinism.cpp).
    exec::set_default_jobs(static_cast<std::size_t>(
        std::max<std::int64_t>(1, flags.get_int("jobs", 1))));
    obs::ObsSession session{program, flags, scale.seed};

    BenchReport report;
    const std::int64_t start_ns = obs::profiler_wall_now_ns();
    run(flags, scale, report);
    const double wall_s =
        static_cast<double>(obs::profiler_wall_now_ns() - start_ns) / 1e9;
    std::cerr << program << ": wall " << obs::fmt_f(wall_s, 3) << " s\n";

    const std::string path = flags.get("bench-out", "BENCH_" + name + ".json");
    if (const int status = util::reject_unused(flags, program); status != 0) {
      return status;
    }
    if (path != "none") {
      std::ofstream out{path};
      if (!out) {
        std::cerr << "bench: cannot open --bench-out file " << path << '\n';
        return 1;
      }
      out << bench_report_json(name, session, report) << '\n';
    }
    return session.finish() ? 0 : 1;
  } catch (const util::FlagError& e) {
    std::cerr << program << ": " << e.what() << '\n';
    return 2;
  } catch (const std::runtime_error& e) {
    std::cerr << program << ": " << e.what() << '\n';
    return 1;
  }
}

}  // namespace scion::exp
