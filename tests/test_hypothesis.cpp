// Tests for the hypothesis-testing additions: Welch t-test,
// two-proportion z-test and configuration comparison.
#include <gtest/gtest.h>

#include "core/indicators.h"
#include "divers/ir.h"
#include "divers/transforms.h"
#include "stats/descriptive.h"
#include "stats/distributions.h"

namespace divsec {
namespace {

using stats::OnlineStats;

OnlineStats sample_normal(double mean, double sd, int n, std::uint64_t seed) {
  stats::Rng rng(seed);
  stats::Distribution d(stats::Normal{mean, sd});
  OnlineStats s;
  for (int i = 0; i < n; ++i) s.add(d.sample(rng));
  return s;
}

TEST(WelchTest, DetectsARealDifference) {
  const auto a = sample_normal(10.0, 2.0, 100, 1);
  const auto b = sample_normal(12.0, 3.0, 80, 2);
  const auto t = stats::welch_t_test(a, b);
  EXPECT_LT(t.p_value, 1e-4);
  EXPECT_LT(t.mean_difference, 0.0);
  EXPECT_GT(t.df, 50.0);
}

TEST(WelchTest, NullCaseHasLargePValueUsually) {
  int rejections = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const auto a = sample_normal(5.0, 1.0, 40, 100 + trial);
    const auto b = sample_normal(5.0, 1.0, 40, 900 + trial);
    if (stats::welch_t_test(a, b).p_value < 0.05) ++rejections;
  }
  EXPECT_LE(rejections, 9);  // ~3 expected at alpha = 0.05
}

TEST(WelchTest, SymmetricInSign) {
  const auto a = sample_normal(1.0, 1.0, 50, 3);
  const auto b = sample_normal(2.0, 1.0, 50, 4);
  const auto ab = stats::welch_t_test(a, b);
  const auto ba = stats::welch_t_test(b, a);
  EXPECT_NEAR(ab.p_value, ba.p_value, 1e-12);
  EXPECT_NEAR(ab.t, -ba.t, 1e-12);
}

TEST(WelchTest, DegenerateConstantSamples) {
  OnlineStats a, b, c;
  for (int i = 0; i < 5; ++i) {
    a.add(3.0);
    b.add(3.0);
    c.add(4.0);
  }
  EXPECT_EQ(stats::welch_t_test(a, b).p_value, 1.0);
  EXPECT_EQ(stats::welch_t_test(a, c).p_value, 0.0);
  OnlineStats tiny;
  tiny.add(1.0);
  EXPECT_THROW((void)stats::welch_t_test(a, tiny), std::invalid_argument);
}

TEST(ProportionTest, DetectsARealDifference) {
  // 60/100 vs 30/100: clearly different.
  const auto t = stats::two_proportion_z_test(60, 100, 30, 100);
  EXPECT_LT(t.p_value, 1e-3);
  EXPECT_NEAR(t.difference, 0.3, 1e-12);
  EXPECT_GT(t.z, 0.0);
}

TEST(ProportionTest, EqualProportionsNotSignificant) {
  const auto t = stats::two_proportion_z_test(50, 100, 52, 100);
  EXPECT_GT(t.p_value, 0.5);
}

TEST(ProportionTest, DegenerateAndErrors) {
  // All failures on both sides: pooled variance zero.
  const auto t = stats::two_proportion_z_test(0, 50, 0, 50);
  EXPECT_EQ(t.p_value, 1.0);
  EXPECT_THROW((void)stats::two_proportion_z_test(5, 0, 1, 10), std::invalid_argument);
  EXPECT_THROW((void)stats::two_proportion_z_test(11, 10, 1, 10), std::invalid_argument);
}

TEST(CompareIndicators, DiversifiedConfigurationIsSignificantlySafer) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const core::SystemDescription desc = core::make_scope_description(cat);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  core::MeasurementOptions mo;
  mo.engine = core::Engine::kStagedSan;
  mo.replications = 800;
  mo.seed = 99;
  const auto mono =
      core::measure_indicators(desc, desc.baseline_configuration(), stuxnet, mo);
  core::Configuration diverse = desc.baseline_configuration();
  diverse.variant[2] = 3;  // resilient PLC firmware
  mo.seed = 100;  // independent streams for the second configuration
  const auto div = core::measure_indicators(desc, diverse, stuxnet, mo);

  const auto cmp = core::compare_indicators(mono, div);
  EXPECT_TRUE(cmp.b_is_significantly_safer(0.01));
  EXPECT_LT(cmp.tta.p_value, 0.01);        // TTA genuinely longer
  EXPECT_LT(cmp.tta.mean_difference, 0.0);  // mono TTA < diverse TTA
}

TEST(CompareIndicators, SameConfigurationIsNotSignificant) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const core::SystemDescription desc = core::make_scope_description(cat);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  core::MeasurementOptions mo;
  mo.engine = core::Engine::kStagedSan;
  mo.replications = 400;
  mo.seed = 7;
  const auto a =
      core::measure_indicators(desc, desc.baseline_configuration(), stuxnet, mo);
  mo.seed = 8;
  const auto b =
      core::measure_indicators(desc, desc.baseline_configuration(), stuxnet, mo);
  const auto cmp = core::compare_indicators(a, b);
  EXPECT_GT(cmp.success.p_value, 0.01);
  EXPECT_FALSE(cmp.b_is_significantly_safer(0.01));
}

TEST(Diversify, AllTransformsChangeTheEncoding) {
  stats::Rng gen(5);
  const divers::Program p = divers::generate_program(gen);
  stats::Rng trng(6);
  const divers::Program q =
      divers::diversify(p, divers::TransformConfig::all(), trng);
  EXPECT_NE(divers::encode(p), divers::encode(q));
}

}  // namespace
}  // namespace divsec
