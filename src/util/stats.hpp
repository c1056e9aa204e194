// Statistics helpers for the evaluation pipeline: streaming moments,
// empirical CDFs (every figure in the paper is a CDF), and geometric means
// (the diversity score of Section 4.2 is a geometric mean of link counters).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace scion::util {

/// Streaming count/mean/variance/min/max using Welford's algorithm.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double min_{0.0};
  double max_{0.0};
  double sum_{0.0};
};

/// Empirical distribution over a set of samples.
///
/// Samples are accumulated with add() and sorted lazily; quantile and
/// fraction queries are then O(log n).
class EmpiricalCdf {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// p-quantile for p in [0, 1], linear interpolation between order
  /// statistics. Requires at least one sample.
  double quantile(double p) const;

  double median() const { return quantile(0.5); }
  double min() const;
  double max() const;
  double mean() const;

  /// Fraction of samples <= x, i.e. the CDF evaluated at x.
  double fraction_at_most(double x) const;

  /// The underlying sorted samples.
  const std::vector<double>& sorted() const;

  /// Evenly spaced (x, F(x)) points suitable for plotting or printing,
  /// at most `points` of them.
  std::vector<std::pair<double, double>> curve(std::size_t points = 32) const;

  /// Renders "p10=.. p50=.. p90=.." style summary.
  std::string summary() const;

 private:
  void ensure_sorted() const;

  mutable std::vector<double> values_;
  mutable bool sorted_{false};
};

/// Geometric mean of non-negative values; zero if any value is zero.
/// Computed in log space to avoid overflow on long paths.
double geometric_mean(const std::vector<double>& xs);

// CDF rendering lives in obs/report.hpp (obs::print_cdf): all result output
// flows through the shared renderer so it is also available as JSON.

}  // namespace scion::util
