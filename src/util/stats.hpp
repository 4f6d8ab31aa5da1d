// Streaming statistics (Welford) and small helpers used by experiments.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace hb::util {

/// Single-pass running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for n < 2.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel reduction).
  void merge(const RunningStats& other);

  void reset() { *this = RunningStats{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Population standard deviation (n denominator) of `n` samples from their
/// sum and sum of squares: the heartbeat jitter definition (fault/classify).
inline double population_stddev(double n, double sum, double sumsq) {
  const double mean = sum / n;
  return std::sqrt(std::max(0.0, sumsq / n - mean * mean));
}

/// Percentile over a copy of the data (p in [0,100], nearest-rank).
double percentile(std::vector<double> values, double p);

/// Exponentially weighted moving average.
class Ewma {
 public:
  /// alpha in (0,1]: weight of the newest sample.
  explicit Ewma(double alpha) : alpha_(alpha) {}

  double add(double x) {
    value_ = seeded_ ? alpha_ * x + (1.0 - alpha_) * value_ : x;
    seeded_ = true;
    return value_;
  }
  double value() const { return value_; }
  bool seeded() const { return seeded_; }

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

}  // namespace hb::util
