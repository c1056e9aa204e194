// Metrics: named counters, gauges, and fixed-bucket histograms.
//
// This is the write-only half of the telemetry layer (the Contrail-style
// registry-of-counters pattern): simulation code records through the
// SCION_METRIC_* macros below, and nothing in the simulation ever reads a
// metric back, so recording cannot perturb simulation state — the
// determinism property test_determinism proves end to end.
//
// Every metric value lives in a MetricShard. The process-wide registry
// (MetricsRegistry::global()) holds one name table per kind and one totals
// shard. Names are dotted paths, subsystem first ("beacon.pcbs_sent"); each
// macro call site interns its name once into a dense per-kind id, so
// steady-state recording is one thread-local load plus an add on a slot of
// current_shard(): the running task's shard, or the totals outside a batch.
// reset() zeroes the totals but never removes a name, which keeps interned
// ids valid.
//
// Parallel execution (src/exec): exec::parallel_for_n gives every task its
// own shard (obs::TaskCapture) and folds the shards into the caller's
// current shard in task *index* order, never in worker or completion order,
// so the totals — floating-point histogram sums included — are
// byte-identical for any --jobs value. Interning and folds into the totals
// take the registry's lock; the record path takes none.
//
// Not counted as the run's allocations: interning and shard growth run in
// an obs::UncountedAllocs scope (obs/alloc_track.hpp), because they grow in
// whichever task gets there first.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace scion::obs {

/// Upper bounds of every histogram's buckets, powers of two from 1 to 65536
/// (message sizes, queue depths, path lengths); one more bucket counts what
/// lies above the last bound.
inline constexpr std::array<double, 17> kHistogramBounds{
    1,   2,    4,    8,    16,   32,    64,    128,  256,
    512, 1024, 2048, 4096, 8192, 16384, 32768, 65536};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Metric values by per-kind id: counters add, gauges keep their high-water
/// mark (starting at zero), histograms count per bucket with total count and
/// sum (Prometheus-style cumulative export).
class MetricShard {
 public:
  void count(std::size_t id, std::uint64_t delta) {
    slot(counts_, id) += delta;
  }
  void gauge_max(std::size_t id, std::int64_t v) {
    std::int64_t& max = slot(maxes_, id);
    if (v > max) max = v;
  }
  void observe(std::size_t id, double v);

  /// Adds every value into `into`. Counter and bucket sums and gauge maxima
  /// commute; a histogram's floating-point sum does not, which is why
  /// shards fold in task-index order.
  void merge_into(MetricShard& into) const;

 private:
  friend class MetricsRegistry;

  struct Hist {
    std::array<std::uint64_t, kHistogramBounds.size() + 1> buckets{};
    std::uint64_t count{0};
    double sum{0.0};
  };

  template <typename T>
  static T& slot(std::vector<T>& values, std::size_t id) {
    if (id >= values.size()) [[unlikely]] grow(values, id);
    return values[id];
  }
  /// Out of line, so the record path inlined at every call site stays a
  /// compare and an add.
  template <typename T>
  static void grow(std::vector<T>& values, std::size_t id);

  std::vector<std::uint64_t> counts_;
  std::vector<std::int64_t> maxes_;
  std::vector<Hist> hists_;
};

class MetricsRegistry {
 public:
  /// The process-wide registry used by the SCION_METRIC_* macros.
  static MetricsRegistry& global();

  /// The dense id of `name` among metrics of `kind`, assigned on first
  /// sight. Thread-safe; called once per macro call site (magic static).
  std::size_t intern(MetricKind kind, std::string_view name);

  /// Where recordings land outside a batch (current_shard() of a thread
  /// that runs no task, for global()). Unlocked: use it with no batch in
  /// flight.
  constexpr MetricShard& totals() { return totals_; }

  /// Folds a finished task's shard into the calling thread's current shard
  /// (the enclosing task's, or the totals), holding the lock. Call on
  /// global(), in task-index order.
  void fold(const MetricShard& task);

  /// Zeroes every value; names and ids survive.
  void reset();

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} listing every
  /// interned name, zero or not, in name order.
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  // Per kind, id -> name.
  std::array<std::vector<std::string>, 3> names_;
  MetricShard totals_;
};

/// The shard this thread records into: the running task's, else the global
/// registry's totals.
MetricShard& current_shard();
/// Installs `shard` and returns the previous one.
MetricShard* set_current_shard(MetricShard* shard);

}  // namespace scion::obs

// --- recording macros --------------------------------------------------------
//
// `name` must be a string literal (it keys the per-call-site id cache).

#define SCION_METRIC_RECORD_(kind, name, record, value)                       \
  do {                                                                        \
    static const std::size_t scion_metric_id_ =                               \
        ::scion::obs::MetricsRegistry::global().intern(                       \
            ::scion::obs::MetricKind::kind, name);                            \
    ::scion::obs::current_shard().record(scion_metric_id_, value);            \
  } while (0)

#define SCION_METRIC_COUNT(name, delta)                                        \
  SCION_METRIC_RECORD_(kCounter, name, count, static_cast<std::uint64_t>(delta))
#define SCION_METRIC_GAUGE_MAX(name, v)                                        \
  SCION_METRIC_RECORD_(kGauge, name, gauge_max, static_cast<std::int64_t>(v))
#define SCION_METRIC_OBSERVE(name, v)                                          \
  SCION_METRIC_RECORD_(kHistogram, name, observe, static_cast<double>(v))
