#include "obs/metrics.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/alloc_track.hpp"
#include "obs/json.hpp"

namespace scion::obs {

namespace {

// The process-wide registry: internally locked, and tasks record into their
// own shards. constinit, so the thread-local below can point at its totals
// from the first instruction of every thread. simlint:allow(mutable-global)
constinit MetricsRegistry g_registry;

// Per-thread recording target, switched by the owning thread only
// (exec::parallel_for_n around each task). simlint:allow(mutable-global)
constinit thread_local MetricShard* t_shard = &g_registry.totals();

/// `names`' ids in name order.
std::vector<std::size_t> by_name(const std::vector<std::string>& names) {
  std::vector<std::size_t> ids(names.size());
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  std::sort(ids.begin(), ids.end(),
            [&](std::size_t a, std::size_t b) { return names[a] < names[b]; });
  return ids;
}

template <typename T>
T value_at(const std::vector<T>& values, std::size_t id) {
  return id < values.size() ? values[id] : T{};
}

}  // namespace

template <typename T>
void MetricShard::grow(std::vector<T>& values, std::size_t id) {
  const UncountedAllocs uncounted;
  values.resize(id + 1);
}
template void MetricShard::grow(std::vector<std::uint64_t>&, std::size_t);
template void MetricShard::grow(std::vector<std::int64_t>&, std::size_t);

void MetricShard::observe(std::size_t id, double v) {
  Hist& h = slot(hists_, id);
  const auto it =
      std::lower_bound(kHistogramBounds.begin(), kHistogramBounds.end(), v);
  ++h.buckets[static_cast<std::size_t>(it - kHistogramBounds.begin())];
  ++h.count;
  h.sum += v;
}

void MetricShard::merge_into(MetricShard& into) const {
  for (std::size_t id = 0; id < counts_.size(); ++id) {
    if (counts_[id] != 0) into.count(id, counts_[id]);
  }
  for (std::size_t id = 0; id < maxes_.size(); ++id) {
    if (maxes_[id] != 0) into.gauge_max(id, maxes_[id]);
  }
  for (std::size_t id = 0; id < hists_.size(); ++id) {
    const Hist& h = hists_[id];
    if (h.count == 0) continue;
    Hist& to = slot(into.hists_, id);
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      to.buckets[b] += h.buckets[b];
    }
    to.count += h.count;
    to.sum += h.sum;
  }
}

MetricsRegistry& MetricsRegistry::global() { return g_registry; }

std::size_t MetricsRegistry::intern(MetricKind kind, std::string_view name) {
  const UncountedAllocs uncounted;
  const std::lock_guard lock{mu_};
  std::vector<std::string>& names = names_[static_cast<std::size_t>(kind)];
  const auto it = std::find(names.begin(), names.end(), name);
  if (it != names.end()) return static_cast<std::size_t>(it - names.begin());
  names.emplace_back(name);
  return names.size() - 1;
}

void MetricsRegistry::fold(const MetricShard& task) {
  const std::lock_guard lock{mu_};
  task.merge_into(current_shard());
}

void MetricsRegistry::reset() {
  const std::lock_guard lock{mu_};
  totals_ = MetricShard{};
}

std::string MetricsRegistry::to_json() const {
  const std::lock_guard lock{mu_};
  const auto& [counter_names, gauge_names, histogram_names] = names_;
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const std::size_t id : by_name(counter_names)) {
    w.kv(counter_names[id], value_at(totals_.counts_, id));
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const std::size_t id : by_name(gauge_names)) {
    w.kv(gauge_names[id], value_at(totals_.maxes_, id));
  }
  w.end_object();
  w.key("histograms").begin_object();
  for (const std::size_t id : by_name(histogram_names)) {
    const MetricShard::Hist h = value_at(totals_.hists_, id);
    w.key(histogram_names[id]).begin_object();
    w.key("bounds").begin_array();
    for (const double b : kHistogramBounds) w.value(b);
    w.end_array();
    w.key("bucket_counts").begin_array();
    for (const std::uint64_t c : h.buckets) w.value(c);
    w.end_array();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).take();
}

MetricShard& current_shard() { return *t_shard; }

MetricShard* set_current_shard(MetricShard* shard) {
  return std::exchange(t_shard, shard);
}

}  // namespace scion::obs
