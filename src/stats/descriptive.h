// descriptive.h — descriptive statistics and interval estimation.
//
// OnlineStats (Welford accumulation) is the workhorse used by reward
// variables and replication controllers; Summary adds order statistics;
// confidence intervals use Student's t from special.h.
#pragma once

#include <cstddef>
#include <span>

namespace divsec::stats {

/// Numerically stable streaming mean/variance accumulator (Welford).
class OnlineStats {
 public:
  /// The complete internal state, exposed for the distributed-sweep
  /// serialization layer (dist/state_codec). from_state(state()) restores
  /// the accumulator exactly — every subsequent add/merge/summary is
  /// bit-identical to the original's.
  struct State {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  OnlineStats() = default;

  [[nodiscard]] State state() const noexcept {
    return {n_, mean_, m2_, min_, max_};
  }

  [[nodiscard]] static OnlineStats from_state(const State& s) noexcept {
    OnlineStats o;
    o.n_ = s.n;
    o.mean_ = s.mean;
    o.m2_ = s.m2;
    o.min_ = s.min;
    o.max_ = s.max;
    return o;
  }

  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    if (x < min_ || n_ == 1) min_ = x;
    if (x > max_ || n_ == 1) max_ = x;
  }

  /// Merge another accumulator (parallel Welford / Chan et al.).
  void merge(const OnlineStats& o) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for n < 2.
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  /// Standard error of the mean; 0 for n < 2.
  [[nodiscard]] double sem() const noexcept;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Two-sided t confidence interval for a mean.
struct ConfidenceInterval {
  double lo = 0.0;
  double hi = 0.0;
  double level = 0.95;
  [[nodiscard]] double half_width() const noexcept { return 0.5 * (hi - lo); }
  [[nodiscard]] bool contains(double x) const noexcept { return x >= lo && x <= hi; }
};

/// t-based CI around the accumulated mean; requires count >= 2.
[[nodiscard]] ConfidenceInterval mean_confidence_interval(const OnlineStats& s,
                                                          double level = 0.95);

/// Welch's unequal-variance two-sample t-test (two-sided).
struct WelchTest {
  double t = 0.0;
  double df = 0.0;
  double p_value = 1.0;  // two-sided
  double mean_difference = 0.0;  // mean(a) - mean(b)
};
/// Requires >= 2 samples per side and at least one nonzero variance.
[[nodiscard]] WelchTest welch_t_test(const OnlineStats& a, const OnlineStats& b);

/// Two-proportion z-test (two-sided, pooled standard error) for comparing
/// success counts — e.g. attack success probabilities of two
/// configurations.
struct ProportionTest {
  double z = 0.0;
  double p_value = 1.0;
  double difference = 0.0;  // p_a - p_b
};
[[nodiscard]] ProportionTest two_proportion_z_test(std::size_t successes_a,
                                                   std::size_t n_a,
                                                   std::size_t successes_b,
                                                   std::size_t n_b);

/// Quantile of a sample by linear interpolation between order statistics
/// (type-7 / the numpy default). q in [0,1]; data need not be sorted.
[[nodiscard]] double quantile(std::span<const double> data, double q);

/// Full five-number-style summary of a sample.
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};
[[nodiscard]] Summary summarize(std::span<const double> data);

}  // namespace divsec::stats
