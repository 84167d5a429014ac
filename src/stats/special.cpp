#include "stats/special.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace divsec::stats {

namespace {

constexpr int kMaxIter = 500;
constexpr double kEps = 3.0e-14;
constexpr double kFpMin = std::numeric_limits<double>::min() / kEps;

/// Continued fraction for the incomplete beta function (Lentz).
double betacf(double a, double b, double x) {
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kFpMin) d = kFpMin;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const int m2 = 2 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double reg_beta(double a, double b, double x) {
  if (!(a > 0.0) || !(b > 0.0))
    throw std::invalid_argument("reg_beta: a and b must be > 0");
  if (x < 0.0 || x > 1.0) throw std::invalid_argument("reg_beta: x must be in [0,1]");
  if (x == 0.0) return 0.0;
  if (x == 1.0) return 1.0;
  const double bt = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                             a * std::log(x) + b * std::log1p(-x));
  // Use the symmetry transform so the continued fraction converges fast.
  if (x < (a + 1.0) / (a + b + 2.0)) return bt * betacf(a, b, x) / a;
  return 1.0 - bt * betacf(b, a, 1.0 - x) / b;
}

double normal_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0))
    throw std::invalid_argument("normal_quantile: p must be in (0,1)");
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double plow = 0.02425;
  double x;
  if (p < plow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - plow) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step drives the error below 1e-12.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * M_PI) * std::exp(0.5 * x * x);
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

double student_t_cdf(double t, double nu) {
  if (!(nu > 0.0)) throw std::invalid_argument("student_t_cdf: nu must be > 0");
  const double x = nu / (nu + t * t);
  const double tail = 0.5 * reg_beta(0.5 * nu, 0.5, x);
  return (t >= 0.0) ? 1.0 - tail : tail;
}

double student_t_quantile(double p, double nu) {
  if (!(p > 0.0 && p < 1.0))
    throw std::invalid_argument("student_t_quantile: p must be in (0,1)");
  // Bisection seeded by the normal quantile; the t CDF is strictly
  // increasing so this converges unconditionally.
  double lo = normal_quantile(p) - 1.0;
  double hi = normal_quantile(p) + 1.0;
  while (student_t_cdf(lo, nu) > p) lo *= 2.0, lo -= 1.0;
  while (student_t_cdf(hi, nu) < p) hi *= 2.0, hi += 1.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (student_t_cdf(mid, nu) < p)
      lo = mid;
    else
      hi = mid;
    if (hi - lo < 1e-12 * (1.0 + std::fabs(hi))) break;
  }
  return 0.5 * (lo + hi);
}

double f_cdf(double x, double d1, double d2) {
  if (!(d1 > 0.0) || !(d2 > 0.0))
    throw std::invalid_argument("f_cdf: degrees of freedom must be > 0");
  if (x <= 0.0) return 0.0;
  return reg_beta(0.5 * d1, 0.5 * d2, d1 * x / (d1 * x + d2));
}

double f_sf(double x, double d1, double d2) {
  if (!(d1 > 0.0) || !(d2 > 0.0))
    throw std::invalid_argument("f_sf: degrees of freedom must be > 0");
  if (x <= 0.0) return 1.0;
  // Compute the tail directly through the complementary beta argument to
  // keep precision for large F (tiny p-values).
  return reg_beta(0.5 * d2, 0.5 * d1, d2 / (d1 * x + d2));
}

}  // namespace divsec::stats
