#include "util/stats.hpp"

#include "util/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace scion::util {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

void EmpiricalCdf::add(double x) {
  values_.push_back(x);
  sorted_ = false;
}

void EmpiricalCdf::add_all(const std::vector<double>& xs) {
  values_.insert(values_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

void EmpiricalCdf::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double EmpiricalCdf::quantile(double p) const {
  SCION_CHECK(!values_.empty(), "statistic needs at least one sample");
  ensure_sorted();
  p = std::clamp(p, 0.0, 1.0);
  if (values_.size() == 1) return values_.front();
  const double pos = p * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

double EmpiricalCdf::min() const {
  SCION_CHECK(!values_.empty(), "statistic needs at least one sample");
  ensure_sorted();
  return values_.front();
}

double EmpiricalCdf::max() const {
  SCION_CHECK(!values_.empty(), "statistic needs at least one sample");
  ensure_sorted();
  return values_.back();
}

double EmpiricalCdf::mean() const {
  if (values_.empty()) return 0.0;
  // Sum over the sorted samples so the floating-point total (and thus the
  // mean) is a pure function of the multiset of values, not insertion order.
  ensure_sorted();
  // simlint:allow(float-accum) — ascending-order sum, canonical per multiset.
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double EmpiricalCdf::fraction_at_most(double x) const {
  if (values_.empty()) return 0.0;
  ensure_sorted();
  const auto it = std::upper_bound(values_.begin(), values_.end(), x);
  return static_cast<double>(it - values_.begin()) /
         static_cast<double>(values_.size());
}

const std::vector<double>& EmpiricalCdf::sorted() const {
  ensure_sorted();
  return values_;
}

std::vector<std::pair<double, double>> EmpiricalCdf::curve(
    std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (values_.empty() || points == 0) return out;
  ensure_sorted();
  points = std::min(points, values_.size());
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double p = points == 1
                         ? 1.0
                         : static_cast<double>(i) / static_cast<double>(points - 1);
    const double x = quantile(p);
    out.emplace_back(x, fraction_at_most(x));
  }
  return out;
}

std::string EmpiricalCdf::summary() const {
  if (values_.empty()) return "(empty)";
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "n=%zu min=%.4g p10=%.4g p50=%.4g p90=%.4g max=%.4g mean=%.4g",
                count(), min(), quantile(0.1), quantile(0.5), quantile(0.9),
                max(), mean());
  return buf;
}

double geometric_mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    SCION_CHECK(x >= 0.0, "log-scale statistic needs non-negative samples");
    if (x == 0.0) return 0.0;
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

}  // namespace scion::util
