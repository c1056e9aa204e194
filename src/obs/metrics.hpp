// Metrics registry: named counters, gauges, and fixed-bucket histograms.
//
// This is the write-only half of the telemetry layer (the Contrail-style
// registry-of-counters pattern): simulation code records through the
// SCION_METRIC_* macros below, and nothing in the simulation ever reads a
// metric back, so recording cannot perturb simulation state — the
// determinism property test_determinism proves end to end.
//
// Instances live in the process-wide registry (MetricsRegistry::global()).
// Names are dotted paths, subsystem first ("beacon.pcbs_sent"); the macro
// interns a dense handle per call site, so steady-state recording is one
// thread-local load plus an add on a 64-bit slot. reset() zeroes values but
// never removes a registration, which keeps interned handles valid.
//
// Parallel execution (src/exec): recording is routed through a thread-local
// MetricShard while a task capture is active (exec::TaskPool installs one
// around every task). Shards are merged into their parent context in task
// *index* order, never in worker or completion order, so the registry
// contents — including floating-point histogram sums — are byte-identical
// for any --jobs value. Registration itself is mutex-protected (it happens
// once per call site); the steady-state record path takes no lock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_safety.hpp"

namespace scion::obs {

class Counter {
 public:
  void add(std::uint64_t delta) { value_ += delta; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_{0};
};

/// A high-water mark: starts at zero and only rises.
class Gauge {
 public:
  void set_max(std::int64_t v) {
    if (v > value_) value_ = v;
  }
  std::int64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::int64_t value_{0};
};

/// Fixed-bucket histogram: counts per upper bound plus an overflow bucket,
/// with total count and sum (Prometheus-style cumulative export).
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Power-of-two bounds 1, 2, 4, ... 65536 — a serviceable default for
  /// message sizes, queue depths, and path lengths.
  static std::vector<double> default_bounds();

  void observe(double v);

  /// Folds pre-bucketed counts from a shard in (bucket layout must match).
  void absorb(const std::vector<std::uint64_t>& bucket_counts,
              std::uint64_t count, double sum);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count per bucket; [bounds().size()] is the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_{0};
  double sum_{0.0};
};

/// Dense per-kind metric id plus the root object, interned once per macro
/// call site. The root pointer stays valid forever (std::map nodes are
/// stable; reset() keeps registrations).
struct CounterHandle {
  std::size_t id{0};
  Counter* root{nullptr};
};
struct GaugeHandle {
  std::size_t id{0};
  Gauge* root{nullptr};
};
struct HistogramHandle {
  std::size_t id{0};
  Histogram* root{nullptr};
};

class MetricShard;

class MetricsRegistry {
 public:
  /// The process-wide registry used by the SCION_METRIC_* macros.
  static MetricsRegistry& global();

  /// Finds or creates. References stay valid for the registry's lifetime
  /// (std::map nodes are stable; reset() keeps registrations). Thread-safe.
  Counter& counter(std::string_view name) SCION_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) SCION_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name) SCION_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name, std::vector<double> bounds)
      SCION_EXCLUDES(mu_);

  /// Finds-or-creates *and* assigns a dense id usable in MetricShards.
  /// Thread-safe; called once per macro call site (magic static).
  CounterHandle intern_counter(std::string_view name) SCION_EXCLUDES(mu_);
  GaugeHandle intern_gauge(std::string_view name) SCION_EXCLUDES(mu_);
  HistogramHandle intern_histogram(std::string_view name) SCION_EXCLUDES(mu_);

  /// Read-side accessors; call from the owning (main) thread only, with no
  /// parallel region in flight — a quiescence argument the lock analysis
  /// cannot see, hence the explicit opt-out.
  const std::map<std::string, Counter, std::less<>>& counters() const
      SCION_NO_THREAD_SAFETY_ANALYSIS {
    return counter_map_;
  }
  const std::map<std::string, Gauge, std::less<>>& gauges() const
      SCION_NO_THREAD_SAFETY_ANALYSIS {
    return gauge_map_;
  }
  const std::map<std::string, Histogram, std::less<>>& histograms() const
      SCION_NO_THREAD_SAFETY_ANALYSIS {
    return histogram_map_;
  }

  /// Zeroes every value; registrations (ids, handles) survive.
  void reset() SCION_EXCLUDES(mu_);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with keys in
  /// name order.
  std::string to_json() const SCION_EXCLUDES(mu_);

 private:
  friend class MetricShard;

  // Guards registration (maps + slot vectors), not the metric values
  // themselves: value mutation goes through shards or happens
  // single-threaded. mutable so const reporting (to_json) can lock.
  mutable util::Mutex mu_;
  std::map<std::string, Counter, std::less<>> counter_map_
      SCION_GUARDED_BY(mu_);
  std::map<std::string, Gauge, std::less<>> gauge_map_ SCION_GUARDED_BY(mu_);
  std::map<std::string, Histogram, std::less<>> histogram_map_
      SCION_GUARDED_BY(mu_);
  // id -> root object, for shard merges; appended under mu_ at intern time.
  std::vector<Counter*> counter_slots_ SCION_GUARDED_BY(mu_);
  std::vector<Gauge*> gauge_slots_ SCION_GUARDED_BY(mu_);
  std::vector<Histogram*> histogram_slots_ SCION_GUARDED_BY(mu_);
  std::map<std::string, std::size_t, std::less<>> counter_ids_
      SCION_GUARDED_BY(mu_);
  std::map<std::string, std::size_t, std::less<>> gauge_ids_
      SCION_GUARDED_BY(mu_);
  std::map<std::string, std::size_t, std::less<>> histogram_ids_
      SCION_GUARDED_BY(mu_);
};

/// One task's private metric buffer. All SCION_METRIC_* recording on a
/// thread goes to the installed shard (see set_current_shard); the task
/// pool merges shards in task-index order, so parallel runs accumulate
/// metrics in exactly the order a --jobs=1 run would.
class MetricShard {
 public:
  bool empty() const {
    return counter_deltas_.empty() && gauge_maxes_.empty() && hists_.empty();
  }

  void count(std::size_t id, std::uint64_t delta);
  void gauge_max(std::size_t id, std::int64_t v);
  void observe(const HistogramHandle& h, double v);

  /// Folds this shard into an enclosing task's shard (nested parallelism).
  void merge_into_shard(MetricShard& parent) const;

  /// Folds this shard into the global registry's root objects.
  void merge_into_registry() const;

 private:
  struct HistShard {
    std::vector<std::uint64_t> counts;  // empty until first observe
    std::uint64_t count{0};
    double sum{0.0};
  };

  std::vector<std::uint64_t> counter_deltas_;  // by id; delta accumulated
  // By id; high-water mark. Gauges start at zero, so zero is the identity
  // of the max, and max commutes: the merge order cannot change a gauge.
  std::vector<std::int64_t> gauge_maxes_;
  std::vector<HistShard> hists_;  // by id
};

/// The shard capturing this thread's recordings, nullptr when recording
/// goes straight to the registry roots (the single-threaded default).
MetricShard* current_shard();
/// Installs `shard` (nullptr to uninstall) and returns the previous one.
MetricShard* set_current_shard(MetricShard* shard);

/// Dispatchers behind the macros: shard if one is installed, root otherwise.
void record_count(const CounterHandle& h, std::uint64_t delta);
void record_gauge_max(const GaugeHandle& h, std::int64_t v);
void record_observe(const HistogramHandle& h, double v);

}  // namespace scion::obs

// --- recording macros --------------------------------------------------------
//
// `name` must be a string literal (it keys the per-call-site handle cache).

#define SCION_METRIC_COUNT(name, delta)                                        \
  do {                                                                         \
    static const ::scion::obs::CounterHandle scion_metric_handle_ =            \
        ::scion::obs::MetricsRegistry::global().intern_counter(name);          \
    ::scion::obs::record_count(scion_metric_handle_,                           \
                               static_cast<std::uint64_t>(delta));             \
  } while (0)

#define SCION_METRIC_GAUGE_MAX(name, v)                                        \
  do {                                                                         \
    static const ::scion::obs::GaugeHandle scion_metric_handle_ =              \
        ::scion::obs::MetricsRegistry::global().intern_gauge(name);            \
    ::scion::obs::record_gauge_max(scion_metric_handle_,                       \
                                   static_cast<std::int64_t>(v));              \
  } while (0)

#define SCION_METRIC_OBSERVE(name, v)                                         \
  do {                                                                        \
    static const ::scion::obs::HistogramHandle scion_metric_handle_ =         \
        ::scion::obs::MetricsRegistry::global().intern_histogram(name);       \
    ::scion::obs::record_observe(scion_metric_handle_,                        \
                                 static_cast<double>(v));                     \
  } while (0)
