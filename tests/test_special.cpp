// Tests for stats/special.h — special functions against reference values.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/special.h"

namespace divsec::stats {
namespace {

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(normal_cdf(-1.0), 0.15865525393145705, 1e-10);
  EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(normal_cdf(-3.0), 0.0013498980316300933, 1e-10);
}

TEST(NormalQuantile, RoundTripsWithCdf) {
  for (double p : {0.001, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 0.999}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-10) << "p=" << p;
  }
}

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-10);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-8);
  EXPECT_NEAR(normal_quantile(0.95), 1.6448536269514722, 1e-8);
}

TEST(NormalQuantile, RejectsOutOfRange) {
  EXPECT_THROW((void)normal_quantile(0.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(1.0), std::invalid_argument);
  EXPECT_THROW((void)normal_quantile(-0.5), std::invalid_argument);
}

TEST(RegBeta, SymmetryIdentity) {
  // I_x(a,b) = 1 - I_{1-x}(b,a).
  for (double a : {0.5, 2.0, 7.0}) {
    for (double b : {1.0, 3.5}) {
      for (double x : {0.1, 0.4, 0.8}) {
        EXPECT_NEAR(reg_beta(a, b, x), 1.0 - reg_beta(b, a, 1.0 - x), 1e-11);
      }
    }
  }
}

TEST(RegBeta, UniformSpecialCase) {
  // I_x(1,1) = x.
  for (double x : {0.0, 0.25, 0.5, 0.9, 1.0})
    EXPECT_NEAR(reg_beta(1.0, 1.0, x), x, 1e-12);
}

TEST(RegBeta, Errors) {
  EXPECT_THROW((void)reg_beta(0.0, 1.0, 0.5), std::invalid_argument);
  EXPECT_THROW((void)reg_beta(1.0, 1.0, 1.5), std::invalid_argument);
  EXPECT_THROW((void)reg_beta(1.0, 1.0, -0.1), std::invalid_argument);
}

TEST(StudentT, MatchesNormalForLargeNu) {
  for (double t : {-2.0, -0.5, 0.0, 1.0, 2.5})
    EXPECT_NEAR(student_t_cdf(t, 1e6), normal_cdf(t), 1e-5);
}

TEST(StudentT, KnownValues) {
  // t(nu=1) is Cauchy: CDF(1) = 3/4.
  EXPECT_NEAR(student_t_cdf(1.0, 1.0), 0.75, 1e-10);
  EXPECT_NEAR(student_t_cdf(0.0, 5.0), 0.5, 1e-12);
  // Classic table: t_{0.975, 10} = 2.228138852.
  EXPECT_NEAR(student_t_quantile(0.975, 10.0), 2.2281388519649385, 1e-6);
  EXPECT_NEAR(student_t_quantile(0.95, 5.0), 2.015048372669157, 1e-6);
}

TEST(StudentT, QuantileRoundTrip) {
  for (double nu : {1.0, 3.0, 12.0, 100.0}) {
    for (double p : {0.05, 0.3, 0.5, 0.9, 0.995}) {
      EXPECT_NEAR(student_t_cdf(student_t_quantile(p, nu), nu), p, 1e-7)
          << "nu=" << nu << " p=" << p;
    }
  }
}

TEST(FDistribution, CdfPlusSurvivalIsOne) {
  for (double x : {0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(f_cdf(x, 3.0, 12.0) + f_sf(x, 3.0, 12.0), 1.0, 1e-12);
  }
}

TEST(FDistribution, KnownCriticalValues) {
  // F_{0.95}(d1=5, d2=10) = 3.325835; the CDF there must be 0.95.
  EXPECT_NEAR(f_cdf(3.3258345231674354, 5.0, 10.0), 0.95, 1e-7);
  // F(1, n) is t^2: P[F(1,7) <= t^2] = 2*P[t(7) <= t] - 1 for t > 0.
  const double t = 1.7;
  EXPECT_NEAR(f_cdf(t * t, 1.0, 7.0), 2.0 * student_t_cdf(t, 7.0) - 1.0, 1e-10);
}

TEST(FDistribution, EdgesAndErrors) {
  EXPECT_EQ(f_cdf(0.0, 2.0, 3.0), 0.0);
  EXPECT_EQ(f_sf(0.0, 2.0, 3.0), 1.0);
  EXPECT_EQ(f_cdf(-1.0, 2.0, 3.0), 0.0);
  EXPECT_THROW((void)f_cdf(1.0, 0.0, 3.0), std::invalid_argument);
  EXPECT_THROW((void)f_sf(1.0, 2.0, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace divsec::stats
