#include "obs/session.hpp"

#include <iostream>
#include <stdexcept>

#include "obs/chrome_trace.hpp"
#include "obs/event_profile.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "util/flags.hpp"

namespace scion::obs {

namespace {

/// Opens the file `--<flag>` names, if the flag is set.
void open_output(std::ofstream& file, const util::Flags& flags,
                 const std::string& flag) {
  const std::string path = flags.get(flag, "");
  if (path.empty()) return;
  file.open(path);
  if (!file) {
    throw std::runtime_error("cannot open --" + flag + " file " + path);
  }
}

/// Closes `file` if open; false, after one line on stderr, when a write
/// into it failed.
bool close_output(std::ofstream& file, std::string_view flag) {
  if (!file.is_open()) return true;
  file.close();
  if (!file.fail()) return true;
  std::cerr << "obs: cannot write --" << flag << " file\n";
  return false;
}

}  // namespace

ObsSession::ObsSession(std::string_view binary, const util::Flags& flags,
                       std::uint64_t seed)
    : manifest_{RunManifest::capture(binary, flags, seed)} {
  MetricsRegistry::global().reset();
  PhaseProfiler::global().reset();
  EventProfiler::global().reset_counters();

  const std::string filter = flags.get("trace-filter", "all");
  auto sink = std::make_unique<TraceSink>(trace_file_);
  if (!sink->set_filter(filter)) {
    throw util::FlagError{"invalid value for --trace-filter: " + filter};
  }
  open_output(metrics_file_, flags, "metrics-out");
  open_output(chrome_trace_file_, flags, "chrome-trace-out");
  open_output(trace_file_, flags, "trace-out");
  if (trace_file_.is_open()) {
    sink_ = std::move(sink);
    set_trace_sink(sink_.get());
  }
}

ObsSession::~ObsSession() { finish(); }

std::string ObsSession::metrics_json() const {
  JsonWriter w;
  w.begin_object();
  w.kv("schema", "scion-mpr-metrics-v1");
  append_run_json(w);
  w.end_object();
  return std::move(w).take();
}

void ObsSession::append_run_json(JsonWriter& w) const {
  w.key("manifest").begin_object();
  manifest_.append_fields(w);
  w.end_object();
  w.key("metrics").value_raw(MetricsRegistry::global().to_json());
  w.key("phases").value_raw(PhaseProfiler::global().to_json());
  w.key("event_profile").value_raw(EventProfiler::global().to_json());
}

bool ObsSession::finish() {
  if (finished_) return written_;
  finished_ = true;

  if (chrome_trace_file_.is_open()) {
    chrome_trace_file_ << chrome_trace_json(PhaseProfiler::global(),
                                            EventProfiler::global())
                       << '\n';
  }
  if (metrics_file_.is_open()) metrics_file_ << metrics_json() << '\n';

  if (sink_) {
    if (trace_sink() == sink_.get()) set_trace_sink(nullptr);
    sink_.reset();
  }
  written_ = close_output(chrome_trace_file_, "chrome-trace-out");
  written_ = close_output(metrics_file_, "metrics-out") && written_;
  written_ = close_output(trace_file_, "trace-out") && written_;
  return written_;
}

}  // namespace scion::obs
