// Structured event tracing: JSONL streams instead of stdout noise.
//
// A TraceSink turns simulation events (beacon origination/propagation/
// expiry, BGP updates and convergence, SIG failover, link failures) into
// one JSON object per line:
//
//   {"t":360000000000,"cat":"beacon","ev":"originate","as":"1-17","egress":42}
//
// `t` is the *virtual* timestamp in nanoseconds — traces never touch the
// wall clock. Categories can be enabled individually (--trace-filter), so a
// 12000-AS run can stream only the beacon churn it is being debugged for.
// Like the metrics registry this is write-only: nothing in the simulation
// reads the sink, so tracing cannot perturb results (proved by
// test_determinism's telemetry ON/OFF comparison).
#pragma once

#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "util/time.hpp"
#include "util/types.hpp"

namespace scion::obs {

enum class Category : std::uint8_t {
  kSimnet = 0,
  kBeacon,
  kBgp,
  kScion,
  kSig,
  kExperiment,
  kFault,
  /// Event-label diagnostics (label-table dumps, event-profile summaries).
  kEvent,
  kCount,
};

const char* to_string(Category c);
std::optional<Category> category_from_string(std::string_view name);

/// One key/value field of a trace event. Integer and floating arguments
/// are captured by constrained templates so call sites can pass any
/// arithmetic type without ambiguity.
struct TraceField {
  enum class Kind : std::uint8_t { kInt, kUint, kDouble, kBool, kString };

  template <std::signed_integral T>
    requires(!std::same_as<T, bool>)
  TraceField(std::string_view k, T v)
      : key{k}, kind{Kind::kInt}, i{static_cast<std::int64_t>(v)} {}

  template <std::unsigned_integral T>
    requires(!std::same_as<T, bool>)
  TraceField(std::string_view k, T v)
      : key{k}, kind{Kind::kUint}, u{static_cast<std::uint64_t>(v)} {}

  template <std::floating_point T>
  TraceField(std::string_view k, T v)
      : key{k}, kind{Kind::kDouble}, d{static_cast<double>(v)} {}

  /// Strong ids and byte quantities render as their raw representation, so
  /// retrofitting a field to a strong type never changes the JSONL output.
  template <util::StrongValueType T>
  TraceField(std::string_view k, const T& v) : TraceField{k, v.value()} {}

  TraceField(std::string_view k, bool v) : key{k}, kind{Kind::kBool}, b{v} {}
  TraceField(std::string_view k, std::string_view v)
      : key{k}, kind{Kind::kString}, s{v} {}
  TraceField(std::string_view k, const char* v)
      : TraceField{k, std::string_view{v}} {}
  TraceField(std::string_view k, const std::string& v)
      : TraceField{k, std::string_view{v}} {}

  std::string_view key;
  Kind kind{Kind::kInt};
  std::int64_t i{0};
  std::uint64_t u{0};
  double d{0.0};
  bool b{false};
  std::string s;
};

class TraceSink {
 public:
  /// Writes JSONL to `out` (borrowed; must outlive the sink). All
  /// categories start enabled.
  explicit TraceSink(std::ostream& out);

  void enable(Category c, bool on = true);
  void enable_all();
  void disable_all();
  bool enabled(Category c) const {
    return (mask_ & (1u << static_cast<unsigned>(c))) != 0;
  }

  /// Applies a comma-separated category filter ("beacon,bgp"); "all" or the
  /// empty string enables everything. Returns false (and changes nothing)
  /// on an unknown category name.
  bool set_filter(std::string_view csv);

  /// Emits one event line (no-op when the category is filtered out).
  void event(util::TimePoint t, Category c, std::string_view name,
             std::initializer_list<TraceField> fields);

  /// Appends pre-rendered JSONL text (a task capture's buffer) verbatim and
  /// accounts its event count. Used by the deterministic parallel merge:
  /// per-task buffers land here in task-index order.
  void write_raw(std::string_view text, std::uint64_t events);

  std::uint32_t mask() const { return mask_; }
  void set_mask(std::uint32_t mask) { mask_ = mask; }

  std::uint64_t events_written() const { return events_written_; }

 private:
  std::ostream& out_;
  std::uint32_t mask_;
  std::uint64_t events_written_{0};
};

/// The sink used by SCION_TRACE on the calling thread: the thread-local
/// override when a task capture is active (see obs/parallel.hpp), otherwise
/// the process-wide sink. nullptr (the default) means tracing is off.
TraceSink* trace_sink();
/// Installs the process-wide sink. Not owning — installers keep the sink
/// and stream alive. Main thread only (never call during a parallel region).
void set_trace_sink(TraceSink* sink);
/// Redirects this thread's SCION_TRACE output (nullptr to clear); returns
/// the previous override. exec::parallel_for_n brackets every task with this.
TraceSink* set_thread_trace_override(TraceSink* sink);

}  // namespace scion::obs

// Usage:
//   SCION_TRACE(obs::Category::kBeacon, now, "originate",
//               {"as", self_id_.to_string()}, {"egress", egress});
// The field list (and every argument expression) is only evaluated when a
// sink is installed and the category is enabled.
#define SCION_TRACE(category, now, event_name, ...)                            \
  do {                                                                         \
    ::scion::obs::TraceSink* scion_trace_sink_ = ::scion::obs::trace_sink();   \
    if (scion_trace_sink_ != nullptr &&                                        \
        scion_trace_sink_->enabled(category)) {                                \
      scion_trace_sink_->event((now), (category), (event_name),                \
                               {__VA_ARGS__});                                 \
    }                                                                          \
  } while (0)
