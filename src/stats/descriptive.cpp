#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "stats/special.h"

namespace divsec::stats {

void OnlineStats::merge(const OnlineStats& o) noexcept {
  if (o.n_ == 0) return;
  if (n_ == 0) {
    *this = o;
    return;
  }
  const double delta = o.mean_ - mean_;
  const auto n = static_cast<double>(n_);
  const auto m = static_cast<double>(o.n_);
  const double tot = n + m;
  m2_ += o.m2_ + delta * delta * n * m / tot;
  mean_ += delta * m / tot;
  n_ += o.n_;
  min_ = std::min(min_, o.min_);
  max_ = std::max(max_, o.max_);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double OnlineStats::sem() const noexcept {
  return n_ > 1 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

ConfidenceInterval mean_confidence_interval(const OnlineStats& s, double level) {
  if (s.count() < 2)
    throw std::invalid_argument("mean_confidence_interval: need >= 2 samples");
  if (!(level > 0.0 && level < 1.0))
    throw std::invalid_argument("mean_confidence_interval: level must be in (0,1)");
  const double t = student_t_quantile(0.5 + 0.5 * level,
                                      static_cast<double>(s.count() - 1));
  const double h = t * s.sem();
  return {s.mean() - h, s.mean() + h, level};
}

WelchTest welch_t_test(const OnlineStats& a, const OnlineStats& b) {
  if (a.count() < 2 || b.count() < 2)
    throw std::invalid_argument("welch_t_test: need >= 2 samples per side");
  const double va = a.variance() / static_cast<double>(a.count());
  const double vb = b.variance() / static_cast<double>(b.count());
  WelchTest r;
  r.mean_difference = a.mean() - b.mean();
  if (va + vb <= 0.0) {
    // Degenerate: identical constants compare equal; different constants
    // differ with certainty.
    r.t = r.mean_difference == 0.0 ? 0.0
                                   : std::numeric_limits<double>::infinity();
    r.df = static_cast<double>(a.count() + b.count() - 2);
    r.p_value = r.mean_difference == 0.0 ? 1.0 : 0.0;
    return r;
  }
  r.t = r.mean_difference / std::sqrt(va + vb);
  // Welch-Satterthwaite degrees of freedom.
  const double na = static_cast<double>(a.count());
  const double nb = static_cast<double>(b.count());
  r.df = (va + vb) * (va + vb) /
         (va * va / (na - 1.0) + vb * vb / (nb - 1.0));
  r.p_value = 2.0 * (1.0 - student_t_cdf(std::fabs(r.t), r.df));
  return r;
}

ProportionTest two_proportion_z_test(std::size_t successes_a, std::size_t n_a,
                                     std::size_t successes_b, std::size_t n_b) {
  if (n_a == 0 || n_b == 0)
    throw std::invalid_argument("two_proportion_z_test: empty sample");
  if (successes_a > n_a || successes_b > n_b)
    throw std::invalid_argument("two_proportion_z_test: successes > n");
  const double pa = static_cast<double>(successes_a) / static_cast<double>(n_a);
  const double pb = static_cast<double>(successes_b) / static_cast<double>(n_b);
  ProportionTest r;
  r.difference = pa - pb;
  const double pooled = static_cast<double>(successes_a + successes_b) /
                        static_cast<double>(n_a + n_b);
  const double se = std::sqrt(pooled * (1.0 - pooled) *
                              (1.0 / static_cast<double>(n_a) +
                               1.0 / static_cast<double>(n_b)));
  if (se <= 0.0) {
    r.z = 0.0;
    r.p_value = 1.0;
    return r;
  }
  r.z = r.difference / se;
  r.p_value = 2.0 * (1.0 - normal_cdf(std::fabs(r.z)));
  return r;
}

double quantile(std::span<const double> data, double q) {
  if (data.empty()) throw std::invalid_argument("quantile: empty sample");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("quantile: q in [0,1]");
  std::vector<double> v(data.begin(), data.end());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  const double frac = pos - static_cast<double>(i);
  return v[i] + frac * (v[i + 1] - v[i]);
}

Summary summarize(std::span<const double> data) {
  if (data.empty()) throw std::invalid_argument("summarize: empty sample");
  OnlineStats os;
  for (double x : data) os.add(x);
  Summary s;
  s.n = data.size();
  s.mean = os.mean();
  s.stddev = os.stddev();
  s.min = os.min();
  s.max = os.max();
  s.p25 = quantile(data, 0.25);
  s.median = quantile(data, 0.50);
  s.p75 = quantile(data, 0.75);
  s.p95 = quantile(data, 0.95);
  return s;
}

}  // namespace divsec::stats
