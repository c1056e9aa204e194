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

ObsSession::ObsSession(std::string_view binary, const util::Flags& flags,
                       std::uint64_t seed)
    : manifest_{RunManifest::capture(binary, flags, seed)} {
  MetricsRegistry::global().reset();
  PhaseProfiler::global().reset();
  EventProfiler::global().reset_counters();

  metrics_path_ = flags.get("metrics-out", "");
  chrome_trace_path_ = flags.get("chrome-trace-out", "");

  const std::string trace_path = flags.get("trace-out", "");
  const std::string filter = flags.get("trace-filter", "all");
  auto sink = std::make_unique<TraceSink>(trace_file_);
  if (!sink->set_filter(filter)) {
    throw util::FlagError{"invalid value for --trace-filter: " + filter};
  }
  if (!trace_path.empty()) {
    trace_file_.open(trace_path);
    if (!trace_file_) {
      throw std::runtime_error("cannot open --trace-out file " + trace_path);
    }
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

  if (!chrome_trace_path_.empty() && !write_chrome_trace(chrome_trace_path_)) {
    written_ = false;
  }

  if (!metrics_path_.empty()) {
    std::ofstream out{metrics_path_};
    if (!out) {
      std::cerr << "obs: cannot open --metrics-out file " << metrics_path_
                << '\n';
      written_ = false;
    } else {
      out << metrics_json() << '\n';
    }
  }

  if (sink_) {
    if (trace_sink() == sink_.get()) set_trace_sink(nullptr);
    sink_.reset();
    trace_file_.close();
  }
  return written_;
}

}  // namespace scion::obs
