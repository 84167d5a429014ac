// Tests for stats/anova.h — factorial variance decomposition.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/anova.h"
#include "stats/distributions.h"
#include "stats/rng.h"

namespace divsec::stats {
namespace {

TEST(FactorialAnova, TwoByTwoHandComputed) {
  // Cell means with no interaction: A effect 4, B effect 2.
  //   A0B0: {1,3} (mean 2)  A1B0: {5,7} (6)  A0B1: {3,5} (4)  A1B1: {7,9} (8)
  const std::vector<std::size_t> levels{2, 2};
  const std::vector<std::string> names{"A", "B"};
  const std::vector<std::vector<double>> cells{
      {1, 3}, {5, 7}, {3, 5}, {7, 9}};  // factor 0 fastest
  const AnovaTable t = factorial_anova(levels, names, cells);
  // SS_A = r * lB * sum over A-levels of (mean_A - grand)^2
  //      = 2 * 2 * ((3-5)^2 + (7-5)^2) = 32.
  EXPECT_NEAR(t.effect("A").ss, 32.0, 1e-9);
  EXPECT_NEAR(t.effect("B").ss, 8.0, 1e-9);
  EXPECT_NEAR(t.effect("A:B").ss, 0.0, 1e-9);
  // Each cell contributes (x - cellmean)^2 = 2 -> SSE = 8, df = 4.
  EXPECT_NEAR(t.error.ss, 8.0, 1e-9);
  EXPECT_EQ(t.error.df, 4u);
  EXPECT_EQ(t.total.df, 7u);
}

TEST(FactorialAnova, EffectsAndErrorPartitionTotal) {
  Rng rng(9);
  const std::vector<std::size_t> levels{3, 2, 2};
  const std::vector<std::string> names{"A", "B", "C"};
  std::vector<std::vector<double>> cells(12);
  for (auto& c : cells)
    for (int r = 0; r < 5; ++r) c.push_back(rng.uniform(0, 10));
  const AnovaTable t =
      factorial_anova(levels, names, cells, /*max_interaction_order=*/3);
  double ss_sum = t.error.ss;
  for (const auto& e : t.effects) ss_sum += e.ss;
  EXPECT_NEAR(ss_sum, t.total.ss, 1e-8 * (1.0 + t.total.ss));
  std::size_t df_sum = t.error.df;
  for (const auto& e : t.effects) df_sum += e.df;
  EXPECT_EQ(df_sum, t.total.df);
}

TEST(FactorialAnova, DetectsPlantedMainEffect) {
  // Response = 10 * A_level + noise; B is pure noise.
  Rng rng(21);
  const std::vector<std::size_t> levels{2, 2};
  const std::vector<std::string> names{"A", "B"};
  std::vector<std::vector<double>> cells(4);
  for (std::size_t cell = 0; cell < 4; ++cell) {
    const std::size_t a = cell % 2;
    for (int r = 0; r < 30; ++r)
      cells[cell].push_back(10.0 * static_cast<double>(a) +
                            sample_standard_normal(rng));
  }
  const AnovaTable t = factorial_anova(levels, names, cells);
  EXPECT_LT(t.effect("A").p_value, 1e-6);
  EXPECT_GT(t.effect("A").eta_squared, 0.8);
  EXPECT_GT(t.effect("B").p_value, 0.01);
  EXPECT_LT(t.effect("B").eta_squared, 0.05);
}

TEST(FactorialAnova, DetectsPlantedInteraction) {
  // Response = 5 * A * B (coded +-1) + noise: pure interaction.
  Rng rng(22);
  const std::vector<std::size_t> levels{2, 2};
  const std::vector<std::string> names{"A", "B"};
  std::vector<std::vector<double>> cells(4);
  for (std::size_t cell = 0; cell < 4; ++cell) {
    const int a = cell % 2 ? 1 : -1;
    const int b = cell / 2 ? 1 : -1;
    for (int r = 0; r < 30; ++r)
      cells[cell].push_back(5.0 * a * b + sample_standard_normal(rng));
  }
  const AnovaTable t = factorial_anova(levels, names, cells);
  EXPECT_LT(t.effect("A:B").p_value, 1e-6);
  EXPECT_GT(t.effect("A").p_value, 0.01);
  EXPECT_GT(t.effect("B").p_value, 0.01);
}

TEST(FactorialAnova, PoolsHighOrderInteractionsIntoError) {
  Rng rng(23);
  const std::vector<std::size_t> levels{2, 2, 2};
  const std::vector<std::string> names{"A", "B", "C"};
  std::vector<std::vector<double>> cells(8);
  for (auto& c : cells)
    for (int r = 0; r < 3; ++r) c.push_back(rng.uniform(0, 1));
  const AnovaTable order2 = factorial_anova(levels, names, cells, 2);
  for (const auto& e : order2.effects)
    EXPECT_EQ(std::count(e.name.begin(), e.name.end(), ':') <= 1, true);
  // The 3-way term's df (1) lands in the error df.
  const AnovaTable order3 = factorial_anova(levels, names, cells, 3);
  EXPECT_EQ(order2.error.df, order3.error.df + 1);
}

TEST(FactorialAnova, SingleReplicateNeedsPooling) {
  const std::vector<std::size_t> levels{2, 2};
  const std::vector<std::string> names{"A", "B"};
  const std::vector<std::vector<double>> cells{{1.0}, {2.0}, {3.0}, {5.0}};
  // With r = 1 and full interactions there is no error term.
  EXPECT_THROW(factorial_anova(levels, names, cells, 2), std::invalid_argument);
  // Pooling the interaction restores testability.
  const AnovaTable t = factorial_anova(levels, names, cells, 1);
  EXPECT_EQ(t.error.df, 1u);
}

TEST(FactorialAnova, ValidationErrors) {
  const std::vector<std::string> names{"A", "B"};
  const std::vector<std::size_t> levels{2, 2};
  EXPECT_THROW(factorial_anova(std::vector<std::size_t>{2}, names,
                               std::vector<std::vector<double>>{{1}, {2}}),
               std::invalid_argument);  // names mismatch
  EXPECT_THROW(factorial_anova(std::vector<std::size_t>{2, 1}, names,
                               std::vector<std::vector<double>>(2, {1.0})),
               std::invalid_argument);  // factor with 1 level
  EXPECT_THROW(
      factorial_anova(levels, names, std::vector<std::vector<double>>(3, {1.0})),
      std::invalid_argument);  // wrong cell count
  std::vector<std::vector<double>> unbalanced(4, {1.0, 2.0});
  unbalanced[2] = {1.0};
  EXPECT_THROW(factorial_anova(levels, names, unbalanced), std::invalid_argument);
}

TEST(AnovaTable, ToStringAndLookup) {
  const std::vector<std::size_t> levels{2, 2};
  const std::vector<std::string> names{"X", "Y"};
  const std::vector<std::vector<double>> cells{{1, 2}, {3, 4}, {2, 4}, {5, 5}};
  const AnovaTable t = factorial_anova(levels, names, cells);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("X:Y"), std::string::npos);
  EXPECT_NE(s.find("Error"), std::string::npos);
  EXPECT_NE(s.find("Total"), std::string::npos);
  EXPECT_THROW((void)t.effect("nope"), std::out_of_range);
  EXPECT_EQ(&t.effect("Error"), &t.error);
}

TEST(FactorialAnova, NullFactorsPValueRoughlyUniform) {
  // Property: with no real effects, p-values should not cluster at 0.
  int small_p = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Rng rng(1000 + trial);
    std::vector<std::vector<double>> cells(4);
    for (auto& c : cells)
      for (int r = 0; r < 8; ++r) c.push_back(sample_standard_normal(rng));
    const AnovaTable t = factorial_anova(std::vector<std::size_t>{2, 2},
                                         std::vector<std::string>{"A", "B"}, cells);
    if (t.effect("A").p_value < 0.05) ++small_p;
  }
  EXPECT_LE(small_p, 10);  // ~3 expected at alpha = 0.05
}

}  // namespace
}  // namespace divsec::stats
