// Tests for stats/descriptive.h — accumulators, quantiles, intervals.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.h"
#include "stats/distributions.h"
#include "stats/rng.h"

namespace divsec::stats {
namespace {

TEST(OnlineStats, MatchesDirectComputation) {
  const std::vector<double> xs{2.0, -1.0, 4.5, 0.0, 3.25, 7.0};
  OnlineStats st;
  for (double x : xs) st.add(x);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  EXPECT_EQ(st.count(), xs.size());
  EXPECT_NEAR(st.mean(), mean, 1e-12);
  EXPECT_NEAR(st.variance(), ss / (static_cast<double>(xs.size()) - 1.0), 1e-12);
  EXPECT_EQ(st.min(), -1.0);
  EXPECT_EQ(st.max(), 7.0);
}

TEST(OnlineStats, EmptyAndSingle) {
  OnlineStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.variance(), 0.0);
  st.add(5.0);
  EXPECT_EQ(st.mean(), 5.0);
  EXPECT_EQ(st.variance(), 0.0);
  EXPECT_EQ(st.sem(), 0.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(10);
  OnlineStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-5, 5);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), mean);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.mean(), mean);
}

TEST(ConfidenceInterval, ContainsMeanAndIsSymmetric) {
  OnlineStats st;
  for (int i = 1; i <= 30; ++i) st.add(static_cast<double>(i));
  const auto ci = mean_confidence_interval(st, 0.95);
  EXPECT_TRUE(ci.contains(st.mean()));
  EXPECT_NEAR(0.5 * (ci.lo + ci.hi), st.mean(), 1e-12);
  EXPECT_GT(ci.half_width(), 0.0);
}

TEST(ConfidenceInterval, CoverageIsApproximatelyNominal) {
  // Property: a 90% t-interval over N(0,1) samples covers 0 about 90% of
  // the time.
  int covered = 0;
  constexpr int kTrials = 2000;
  Rng master(77);
  for (int t = 0; t < kTrials; ++t) {
    Rng rng = master.stream(t);
    OnlineStats st;
    for (int i = 0; i < 15; ++i) st.add(sample_standard_normal(rng));
    if (mean_confidence_interval(st, 0.90).contains(0.0)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / kTrials;
  EXPECT_NEAR(coverage, 0.90, 0.025);
}

TEST(ConfidenceInterval, Errors) {
  OnlineStats st;
  st.add(1.0);
  EXPECT_THROW((void)mean_confidence_interval(st, 0.95), std::invalid_argument);
  st.add(2.0);
  EXPECT_THROW((void)mean_confidence_interval(st, 0.0), std::invalid_argument);
  EXPECT_THROW((void)mean_confidence_interval(st, 1.0), std::invalid_argument);
}

TEST(Quantile, OrderStatisticsInterpolation) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(quantile(v, 0.0), 1.0);
  EXPECT_EQ(quantile(v, 1.0), 4.0);
  EXPECT_NEAR(quantile(v, 0.5), 2.5, 1e-12);
  EXPECT_NEAR(quantile(v, 1.0 / 3.0), 2.0, 1e-12);
}

TEST(Quantile, UnsortedInputIsHandled) {
  const std::vector<double> v{9.0, 1.0, 5.0};
  EXPECT_EQ(quantile(v, 0.5), 5.0);
}

TEST(Quantile, Errors) {
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)quantile(v, 1.5), std::invalid_argument);
}

}  // namespace
}  // namespace divsec::stats
