// Tests for stats/doe.h — factorial spaces and screening designs.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "stats/doe.h"

namespace divsec::stats {
namespace {

FactorSpace small_space() {
  return FactorSpace({{"os", {"win", "linux", "rtos"}},
                      {"plc", {"s7", "abb"}},
                      {"fw", {"stock", "ngfw"}}});
}

TEST(FactorSpace, ConfigurationCount) {
  EXPECT_EQ(small_space().configuration_count(), 3u * 2u * 2u);
}

TEST(FactorSpace, EncodeDecodeRoundTrip) {
  const FactorSpace s = small_space();
  for (std::size_t i = 0; i < s.configuration_count(); ++i) {
    EXPECT_EQ(s.encode(s.decode(i)), i);
  }
}

TEST(FactorSpace, DecodeFactorZeroFastest) {
  const FactorSpace s = small_space();
  EXPECT_EQ(s.decode(0), (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(s.decode(1), (std::vector<int>{1, 0, 0}));
  EXPECT_EQ(s.decode(3), (std::vector<int>{0, 1, 0}));
  EXPECT_EQ(s.decode(6), (std::vector<int>{0, 0, 1}));
}

TEST(FactorSpace, Errors) {
  EXPECT_THROW(FactorSpace(std::vector<Factor>{{"empty", {}}}),
               std::invalid_argument);
  const FactorSpace s = small_space();
  EXPECT_THROW(s.decode(12), std::out_of_range);
  EXPECT_THROW((void)s.encode(std::vector<int>{0, 0}), std::invalid_argument);
  EXPECT_THROW((void)s.encode(std::vector<int>{3, 0, 0}), std::out_of_range);
}

TEST(FullFactorial, EnumeratesAllDistinctConfigs) {
  const auto configs = full_factorial(small_space());
  EXPECT_EQ(configs.size(), 12u);
  std::set<std::vector<int>> unique(configs.begin(), configs.end());
  EXPECT_EQ(unique.size(), 12u);
}

TEST(TwoLevelFullFactorial, StandardOrderAndBalance) {
  const auto d = full_factorial_2k({"A", "B", "C"});
  EXPECT_EQ(d.run_count(), 8u);
  EXPECT_EQ(d.factor_count(), 3u);
  for (std::size_t f = 0; f < 3; ++f) {
    int sum = 0;
    for (const auto& run : d.runs) sum += run[f];
    EXPECT_EQ(sum, 0) << "column " << f << " unbalanced";
  }
  EXPECT_EQ(d.runs[0], (std::vector<int>{-1, -1, -1}));
  EXPECT_EQ(d.runs[7], (std::vector<int>{1, 1, 1}));
}

TEST(FractionalFactorial, GeneratorColumnIsProduct) {
  const Generator g{"D", "ABC"};
  const auto d = fractional_factorial({"A", "B", "C"}, std::span(&g, 1));
  EXPECT_EQ(d.run_count(), 8u);
  EXPECT_EQ(d.factor_count(), 4u);
  for (const auto& run : d.runs) EXPECT_EQ(run[3], run[0] * run[1] * run[2]);
}

TEST(FractionalFactorial, AliasStructureResolutionIV) {
  const Generator g{"D", "ABC"};
  const auto as = alias_structure(3, std::span(&g, 1));
  ASSERT_EQ(as.defining_relation.size(), 1u);
  EXPECT_EQ(as.defining_relation[0], "ABCD");
  EXPECT_EQ(as.resolution, 4);
  // A is aliased with BCD.
  const auto aliases = as.aliases_of("A");
  ASSERT_EQ(aliases.size(), 1u);
  EXPECT_EQ(aliases[0], "BCD");
}

TEST(FractionalFactorial, TwoGeneratorsSubgroup) {
  // 2^(5-2) with D=AB, E=AC: defining relation {ABD, ACE, BCDE}.
  const std::vector<Generator> gs{{"D", "AB"}, {"E", "AC"}};
  const auto as = alias_structure(3, gs);
  EXPECT_EQ(as.defining_relation.size(), 3u);
  EXPECT_EQ(as.resolution, 3);
  std::set<std::string> words(as.defining_relation.begin(),
                              as.defining_relation.end());
  EXPECT_TRUE(words.contains("ABD"));
  EXPECT_TRUE(words.contains("ACE"));
  EXPECT_TRUE(words.contains("BCDE"));
}

// Plackett-Burman orthogonality across the size ladder (Sylvester and
// Paley constructions both covered).
class PlackettBurman : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlackettBurman, ColumnsAreOrthogonalAndBalanced) {
  const std::size_t k = GetParam();
  std::vector<std::string> names;
  for (std::size_t i = 0; i < k; ++i) names.push_back("F" + std::to_string(i));
  const auto d = plackett_burman(names);
  EXPECT_GT(d.run_count(), k);
  EXPECT_EQ(d.run_count() % 4, 0u);
  for (std::size_t a = 0; a < k; ++a) {
    int sum = 0;
    for (const auto& run : d.runs) sum += run[a];
    EXPECT_EQ(sum, 0) << "column " << a << " unbalanced (N=" << d.run_count() << ")";
    for (std::size_t b = a + 1; b < k; ++b) {
      int dot = 0;
      for (const auto& run : d.runs) dot += run[a] * run[b];
      EXPECT_EQ(dot, 0) << "columns " << a << "," << b << " not orthogonal";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PlackettBurman,
                         ::testing::Values(2, 3, 5, 7, 8, 11, 15, 19, 23, 31));

TEST(PlackettBurman, TooManyFactorsRejected) {
  std::vector<std::string> names(32, "x");
  for (std::size_t i = 0; i < names.size(); ++i) names[i] += std::to_string(i);
  EXPECT_THROW(plackett_burman(names), std::invalid_argument);
}

TEST(EffectEstimation, RecoversPlantedLinearModel) {
  // y = 10 + 3*A - 2*B + 0.5*A*B  (in coded units): the estimated effect
  // of A must be 2*3 = 6, of B -4, of AB 1.
  const auto d = full_factorial_2k({"A", "B"});
  std::vector<double> y;
  for (const auto& run : d.runs)
    y.push_back(10.0 + 3.0 * run[0] - 2.0 * run[1] + 0.5 * run[0] * run[1]);
  EXPECT_NEAR(estimate_effect(d, y, "A"), 6.0, 1e-12);
  EXPECT_NEAR(estimate_effect(d, y, "B"), -4.0, 1e-12);
  EXPECT_NEAR(estimate_effect(d, y, "AB"), 1.0, 1e-12);
  const auto effects = main_effects(d, y);
  EXPECT_NEAR(effects[0], 6.0, 1e-12);
  EXPECT_NEAR(effects[1], -4.0, 1e-12);
}

TEST(EffectEstimation, Errors) {
  const auto d = full_factorial_2k({"A", "B"});
  const std::vector<double> y(4, 0.0);
  EXPECT_THROW((void)estimate_effect(d, std::vector<double>(3, 0.0), "A"),
               std::invalid_argument);
  EXPECT_THROW((void)estimate_effect(d, y, ""), std::invalid_argument);
  EXPECT_THROW((void)estimate_effect(d, y, "C"), std::invalid_argument);
}

}  // namespace
}  // namespace divsec::stats
