// special.h — special functions backing the statistical tests.
//
// The ANOVA engine needs the F distribution and confidence intervals need
// Student's t. Both are expressed in terms of the regularized incomplete
// beta function, implemented with the classic continued-fraction split
// (Numerical Recipes style), accurate to ~1e-12 over the ranges the
// library exercises.
#pragma once

namespace divsec::stats {

/// Regularized incomplete beta I_x(a, b), a, b > 0, x in [0, 1].
[[nodiscard]] double reg_beta(double a, double b, double x);

/// Standard normal CDF.
[[nodiscard]] double normal_cdf(double z);

/// Standard normal quantile (inverse CDF), p in (0, 1). Acklam's rational
/// approximation refined with one Halley step; |error| < 1e-12.
[[nodiscard]] double normal_quantile(double p);

/// Student's t CDF with nu > 0 degrees of freedom.
[[nodiscard]] double student_t_cdf(double t, double nu);

/// Student's t quantile: smallest t with CDF(t) >= p, p in (0, 1).
[[nodiscard]] double student_t_quantile(double p, double nu);

/// F distribution CDF with (d1, d2) degrees of freedom, x >= 0.
[[nodiscard]] double f_cdf(double x, double d1, double d2);

/// Upper tail of the F distribution: P[F > x]; the ANOVA p-value.
[[nodiscard]] double f_sf(double x, double d1, double d2);

}  // namespace divsec::stats
