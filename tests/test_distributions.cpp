// Tests for stats/distributions.h — sampling ranges, moments, validation.
#include <gtest/gtest.h>

#include <cmath>

#include "stats/descriptive.h"
#include "stats/distributions.h"

namespace divsec::stats {
namespace {

// Property sweep: every distribution's Monte-Carlo mean and variance must
// match the analytic moments.
struct MomentCase {
  const char* name;
  Distribution dist;
};

class DistributionMoments : public ::testing::TestWithParam<MomentCase> {};

TEST_P(DistributionMoments, SampleMeanMatchesAnalyticMean) {
  Distribution d = GetParam().dist;
  Rng rng(1234);
  OnlineStats st;
  for (int i = 0; i < 200000; ++i) st.add(d.sample(rng));
  const double tol = 0.02 * std::max(1.0, std::fabs(d.mean())) +
                     4.0 * std::sqrt(d.variance() / 200000.0);
  EXPECT_NEAR(st.mean(), d.mean(), tol) << GetParam().name;
}

TEST_P(DistributionMoments, SampleVarianceMatchesAnalyticVariance) {
  Distribution d = GetParam().dist;
  Rng rng(99);
  OnlineStats st;
  for (int i = 0; i < 200000; ++i) st.add(d.sample(rng));
  EXPECT_NEAR(st.variance(), d.variance(),
              0.05 * std::max(0.01, d.variance()))
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, DistributionMoments,
    ::testing::Values(
        MomentCase{"deterministic", Distribution(Deterministic{3.5})},
        MomentCase{"exponential", Distribution(Exponential{2.5})},
        MomentCase{"normal", Distribution(Normal{-1.0, 2.0})}),
    [](const auto& info) { return info.param.name; });

TEST(Distributions, DeterministicAlwaysSameValue) {
  Distribution d(Deterministic{7.25});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(rng), 7.25);
}

TEST(Distributions, ExponentialIsNonNegative) {
  Distribution d(Exponential{0.5});
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(d.sample(rng), 0.0);
}

TEST(Distributions, ToStringNamesTheFamily) {
  EXPECT_NE(Distribution(Exponential{2.0}).to_string().find("Exponential"),
            std::string::npos);
  EXPECT_NE(Distribution(Normal{0.0, 1.0}).to_string().find("Normal"),
            std::string::npos);
}

TEST(Distributions, DefaultConstructedIsPointMassAtZero) {
  Distribution d;
  Rng rng(6);
  EXPECT_EQ(d.sample(rng), 0.0);
  EXPECT_EQ(d.mean(), 0.0);
  EXPECT_EQ(d.variance(), 0.0);
}

TEST(DistributionsValidation, RejectsBadParameters) {
  EXPECT_THROW(Distribution(Exponential{0.0}), std::invalid_argument);
  EXPECT_THROW(Distribution(Exponential{-1.0}), std::invalid_argument);
  EXPECT_THROW(Distribution(Normal{0.0, -1.0}), std::invalid_argument);
}

TEST(Distributions, SamplingIsDeterministicInSeed) {
  Distribution d(Normal{1.7, 3.0});
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(d.sample(a), d.sample(b));
}

TEST(Distributions, StandardNormalPolarMethodMoments) {
  Rng rng(7);
  OnlineStats st;
  for (int i = 0; i < 200000; ++i) st.add(sample_standard_normal(rng));
  EXPECT_NEAR(st.mean(), 0.0, 0.01);
  EXPECT_NEAR(st.variance(), 1.0, 0.02);
}

}  // namespace
}  // namespace divsec::stats
