#include "obs/metrics.hpp"

#include <algorithm>

#include "obs/json.hpp"
#include "util/check.hpp"

namespace scion::obs {

namespace {

// Per-thread capture target; installed/uninstalled by the owning thread
// only (exec::parallel_for_n around each task). simlint:allow(mutable-global)
thread_local MetricShard* t_shard = nullptr;

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_{std::move(upper_bounds)}, counts_(bounds_.size() + 1, 0) {
  SCION_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram bounds must be increasing");
}

std::vector<double> Histogram::default_bounds() {
  std::vector<double> bounds;
  for (double b = 1.0; b <= 65536.0; b *= 2.0) bounds.push_back(b);
  return bounds;
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

void Histogram::absorb(const std::vector<std::uint64_t>& bucket_counts,
                       std::uint64_t count, double sum) {
  SCION_CHECK(bucket_counts.size() == counts_.size(),
              "histogram shard bucket layout mismatch");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += bucket_counts[i];
  }
  count_ += count;
  sum_ += sum;
}

void Histogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = 0.0;
}

MetricsRegistry& MetricsRegistry::global() {
  // The process-wide registry: internally locked, and tasks record into
  // thread-local shards. simlint:allow(mutable-global)
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::lock_guard lock{mu_};
  const auto it = counter_map_.find(name);
  if (it != counter_map_.end()) return it->second;
  return counter_map_.emplace(std::string{name}, Counter{}).first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::lock_guard lock{mu_};
  const auto it = gauge_map_.find(name);
  if (it != gauge_map_.end()) return it->second;
  return gauge_map_.emplace(std::string{name}, Gauge{}).first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return histogram(name, Histogram::default_bounds());
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> bounds) {
  const std::lock_guard lock{mu_};
  const auto it = histogram_map_.find(name);
  if (it != histogram_map_.end()) return it->second;
  return histogram_map_.emplace(std::string{name}, Histogram{std::move(bounds)})
      .first->second;
}

CounterHandle MetricsRegistry::intern_counter(std::string_view name) {
  const std::lock_guard lock{mu_};
  auto map_it = counter_map_.find(name);
  if (map_it == counter_map_.end()) {
    map_it = counter_map_.emplace(std::string{name}, Counter{}).first;
  }
  const auto id_it = counter_ids_.find(name);
  if (id_it != counter_ids_.end()) {
    return CounterHandle{id_it->second, &map_it->second};
  }
  const std::size_t id = counter_slots_.size();
  counter_slots_.push_back(&map_it->second);
  counter_ids_.emplace(std::string{name}, id);
  return CounterHandle{id, &map_it->second};
}

GaugeHandle MetricsRegistry::intern_gauge(std::string_view name) {
  const std::lock_guard lock{mu_};
  auto map_it = gauge_map_.find(name);
  if (map_it == gauge_map_.end()) {
    map_it = gauge_map_.emplace(std::string{name}, Gauge{}).first;
  }
  const auto id_it = gauge_ids_.find(name);
  if (id_it != gauge_ids_.end()) {
    return GaugeHandle{id_it->second, &map_it->second};
  }
  const std::size_t id = gauge_slots_.size();
  gauge_slots_.push_back(&map_it->second);
  gauge_ids_.emplace(std::string{name}, id);
  return GaugeHandle{id, &map_it->second};
}

HistogramHandle MetricsRegistry::intern_histogram(std::string_view name) {
  const std::lock_guard lock{mu_};
  auto map_it = histogram_map_.find(name);
  if (map_it == histogram_map_.end()) {
    map_it = histogram_map_
                 .emplace(std::string{name},
                          Histogram{Histogram::default_bounds()})
                 .first;
  }
  const auto id_it = histogram_ids_.find(name);
  if (id_it != histogram_ids_.end()) {
    return HistogramHandle{id_it->second, &map_it->second};
  }
  const std::size_t id = histogram_slots_.size();
  histogram_slots_.push_back(&map_it->second);
  histogram_ids_.emplace(std::string{name}, id);
  return HistogramHandle{id, &map_it->second};
}

void MetricsRegistry::reset() {
  const std::lock_guard lock{mu_};
  for (auto& [name, c] : counter_map_) c.reset();
  for (auto& [name, g] : gauge_map_) g.reset();
  for (auto& [name, h] : histogram_map_) h.reset();
}

std::string MetricsRegistry::to_json() const {
  const std::lock_guard lock{mu_};
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counter_map_) w.kv(name, c.value());
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, g] : gauge_map_) w.kv(name, g.value());
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histogram_map_) {
    w.key(name).begin_object();
    w.key("bounds").begin_array();
    for (const double b : h.bounds()) w.value(b);
    w.end_array();
    w.key("bucket_counts").begin_array();
    for (const std::uint64_t c : h.bucket_counts()) w.value(c);
    w.end_array();
    w.kv("count", h.count());
    w.kv("sum", h.sum());
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).take();
}

// --- MetricShard -------------------------------------------------------------

void MetricShard::count(std::size_t id, std::uint64_t delta) {
  if (counter_deltas_.size() <= id) counter_deltas_.resize(id + 1, 0);
  counter_deltas_[id] += delta;
}

void MetricShard::gauge_max(std::size_t id, std::int64_t v) {
  if (gauge_maxes_.size() <= id) gauge_maxes_.resize(id + 1, 0);
  gauge_maxes_[id] = std::max(gauge_maxes_[id], v);
}

void MetricShard::observe(const HistogramHandle& h, double v) {
  if (hists_.size() <= h.id) hists_.resize(h.id + 1);
  HistShard& hs = hists_[h.id];
  // h.root->bounds() is immutable after registration, so this concurrent
  // read needs no lock.
  const std::vector<double>& bounds = h.root->bounds();
  if (hs.counts.empty()) hs.counts.assign(bounds.size() + 1, 0);
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), v);
  ++hs.counts[static_cast<std::size_t>(it - bounds.begin())];
  ++hs.count;
  hs.sum += v;
}

void MetricShard::merge_into_shard(MetricShard& parent) const {
  for (std::size_t id = 0; id < counter_deltas_.size(); ++id) {
    if (counter_deltas_[id] != 0) parent.count(id, counter_deltas_[id]);
  }
  for (std::size_t id = 0; id < gauge_maxes_.size(); ++id) {
    if (gauge_maxes_[id] != 0) parent.gauge_max(id, gauge_maxes_[id]);
  }
  for (std::size_t id = 0; id < hists_.size(); ++id) {
    const HistShard& hs = hists_[id];
    if (hs.count == 0) continue;
    if (parent.hists_.size() <= id) parent.hists_.resize(id + 1);
    HistShard& ps = parent.hists_[id];
    if (ps.counts.empty()) ps.counts.assign(hs.counts.size(), 0);
    for (std::size_t b = 0; b < hs.counts.size(); ++b) {
      ps.counts[b] += hs.counts[b];
    }
    ps.count += hs.count;
    ps.sum += hs.sum;
  }
}

void MetricShard::merge_into_registry() const {
  MetricsRegistry& reg = MetricsRegistry::global();
  // The lock orders this merge against concurrent interning from sibling
  // parallel regions; merges themselves are already serialized per context.
  const std::lock_guard lock{reg.mu_};
  for (std::size_t id = 0; id < counter_deltas_.size(); ++id) {
    if (counter_deltas_[id] != 0) reg.counter_slots_[id]->add(counter_deltas_[id]);
  }
  for (std::size_t id = 0; id < gauge_maxes_.size(); ++id) {
    reg.gauge_slots_[id]->set_max(gauge_maxes_[id]);
  }
  for (std::size_t id = 0; id < hists_.size(); ++id) {
    const HistShard& hs = hists_[id];
    if (hs.count == 0) continue;
    reg.histogram_slots_[id]->absorb(hs.counts, hs.count, hs.sum);
  }
}

MetricShard* current_shard() { return t_shard; }

MetricShard* set_current_shard(MetricShard* shard) {
  MetricShard* prev = t_shard;
  t_shard = shard;
  return prev;
}

void record_count(const CounterHandle& h, std::uint64_t delta) {
  if (t_shard != nullptr) {
    t_shard->count(h.id, delta);
  } else {
    h.root->add(delta);
  }
}

void record_gauge_max(const GaugeHandle& h, std::int64_t v) {
  if (t_shard != nullptr) {
    t_shard->gauge_max(h.id, v);
  } else {
    h.root->set_max(v);
  }
}

void record_observe(const HistogramHandle& h, double v) {
  if (t_shard != nullptr) {
    t_shard->observe(h, v);
  } else {
    h.root->observe(v);
  }
}

}  // namespace scion::obs
