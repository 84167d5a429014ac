// Tests for core/optimizer.h — greedy planning and placement strategies.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/optimizer.h"

namespace divsec::core {
namespace {

class OptimizerFixture : public ::testing::Test {
 protected:
  OptimizerFixture() : desc(make_scope_description(cat)) {
    mo.engine = Engine::kStagedSan;  // fast objective evaluations
    mo.replications = 150;
    mo.seed = 4242;
  }
  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  SystemDescription desc;
  attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  MeasurementOptions mo;
};

TEST_F(OptimizerFixture, GreedyPlanImprovesSuccessProbabilityWithinBudget) {
  const double budget = 4.0;
  const UpgradePlan plan = greedy_diversification(desc, stuxnet, mo, budget);
  EXPECT_LE(plan.total_extra_cost, budget + 1e-9);
  EXPECT_LT(plan.planned_success_prob, plan.baseline_success_prob);
  EXPECT_FALSE(plan.steps.empty());
  // Steps record a strictly improving trajectory.
  double prev = plan.baseline_success_prob;
  for (const auto& s : plan.steps) {
    EXPECT_LT(s.success_prob_after, prev);
    prev = s.success_prob_after;
  }
  EXPECT_DOUBLE_EQ(prev, plan.planned_success_prob);
}

TEST_F(OptimizerFixture, ZeroBudgetMeansNoSteps) {
  const UpgradePlan plan = greedy_diversification(desc, stuxnet, mo, 0.0);
  EXPECT_TRUE(plan.steps.empty());
  EXPECT_EQ(plan.configuration.variant, desc.baseline_configuration().variant);
  EXPECT_THROW(greedy_diversification(desc, stuxnet, mo, -1.0),
               std::invalid_argument);
}

TEST_F(OptimizerFixture, FirstGreedyStepTargetsTheChokePoint) {
  // With Stuxnet's kill chain, the best benefit/cost upgrade is the PLC
  // firmware (or control OS); it must not be the historian.
  const UpgradePlan plan = greedy_diversification(desc, stuxnet, mo, 10.0);
  ASSERT_FALSE(plan.steps.empty());
  EXPECT_NE(plan.steps[0].component, "historian.db");
  EXPECT_NE(plan.steps[0].component, "hmi.software");
}

TEST_F(OptimizerFixture, PlacementUpgradesExactlyK) {
  stats::Rng rng(1);
  for (std::size_t k : {0u, 1u, 3u, 7u}) {
    const Configuration c = place_resilient_components(
        desc, k, PlacementStrategy::kRandom, stuxnet, mo, rng);
    EXPECT_EQ(static_cast<std::size_t>(std::count_if(
                  c.variant.begin(), c.variant.end(),
                  [](std::size_t v) { return v != 0; })),
              k);
    // Upgraded components use the last (most resilient) variant.
    for (std::size_t i = 0; i < c.variant.size(); ++i) {
      if (c.variant[i] != 0) {
        EXPECT_EQ(c.variant[i],
                  cat.count(desc.components()[i].kind) - 1);
      }
    }
  }
  EXPECT_THROW(place_resilient_components(desc, 8, PlacementStrategy::kRandom,
                                          stuxnet, mo, rng),
               std::invalid_argument);
}

TEST_F(OptimizerFixture, StrategicPlacementIsDeterministic) {
  stats::Rng r1(1), r2(2);
  const Configuration a = place_resilient_components(
      desc, 2, PlacementStrategy::kStrategic, stuxnet, mo, r1);
  const Configuration b = place_resilient_components(
      desc, 2, PlacementStrategy::kStrategic, stuxnet, mo, r2);
  EXPECT_EQ(a.variant, b.variant);
}

TEST_F(OptimizerFixture, StrategicBeatsRandomPlacementOnAverage) {
  // The paper's sensitivity-analysis claim (E8): a small number of
  // well-placed resilient components beats the same number placed
  // randomly.
  constexpr std::size_t k = 2;
  stats::Rng rng(99);
  const Configuration strategic = place_resilient_components(
      desc, k, PlacementStrategy::kStrategic, stuxnet, mo, rng);
  const double p_strategic =
      attack_success_probability(desc, strategic, stuxnet, mo);

  double p_random_acc = 0.0;
  constexpr int kTrials = 12;
  for (int t = 0; t < kTrials; ++t) {
    stats::Rng trng(200 + t);
    const Configuration random = place_resilient_components(
        desc, k, PlacementStrategy::kRandom, stuxnet, mo, trng);
    p_random_acc += attack_success_probability(desc, random, stuxnet, mo);
  }
  EXPECT_LT(p_strategic, p_random_acc / kTrials);
}

TEST_F(OptimizerFixture, StrategicPicksDistinctComponents) {
  stats::Rng rng(5);
  const Configuration c = place_resilient_components(
      desc, 3, PlacementStrategy::kStrategic, stuxnet, mo, rng);
  std::set<std::size_t> upgraded;
  for (std::size_t i = 0; i < c.variant.size(); ++i)
    if (c.variant[i] != 0) upgraded.insert(i);
  EXPECT_EQ(upgraded.size(), 3u);
}

}  // namespace
}  // namespace divsec::core
