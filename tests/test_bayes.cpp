// Tests for attack/bayes.h — BN semantics and the attack-BN compilation.
#include <gtest/gtest.h>

#include <cmath>

#include "attack/bayes.h"
#include "san/analysis.h"
#include "attack/san_model.h"

namespace divsec::attack {
namespace {

using Ev = BayesianNetwork::Evidence;

/// The textbook sprinkler network: Rain -> Sprinkler, {Rain, Sprinkler} ->
/// GrassWet, with well-known posteriors.
BayesianNetwork sprinkler() {
  BayesianNetwork bn;
  const auto rain = bn.add_node("rain", 2, {}, {0.8, 0.2});
  // P[sprinkler | rain]: rain=0 -> 0.4 on; rain=1 -> 0.01 on.
  const auto spr = bn.add_node("sprinkler", 2, {rain}, {0.6, 0.4, 0.99, 0.01});
  // P[wet | rain, sprinkler] with parent order (rain, sprinkler),
  // rain fastest: combos (r=0,s=0), (r=1,s=0), (r=0,s=1), (r=1,s=1).
  bn.add_node("wet", 2, {rain, spr},
              {1.0, 0.0,     // r0 s0
               0.2, 0.8,     // r1 s0
               0.1, 0.9,     // r0 s1
               0.01, 0.99}); // r1 s1
  return bn;
}

TEST(BayesianNetwork, JointFactorizes) {
  const BayesianNetwork bn = sprinkler();
  // P(r=1, s=0, w=1) = 0.2 * 0.99 * 0.8 = 0.1584.
  EXPECT_NEAR(bn.joint(std::vector<int>{1, 0, 1}), 0.2 * 0.99 * 0.8, 1e-12);
  EXPECT_NEAR(bn.joint(std::vector<int>{0, 0, 0}), 0.8 * 0.6 * 1.0, 1e-12);
}

TEST(BayesianNetwork, JointSumsToOne) {
  const BayesianNetwork bn = sprinkler();
  double total = 0.0;
  for (int r = 0; r < 2; ++r)
    for (int s = 0; s < 2; ++s)
      for (int w = 0; w < 2; ++w) total += bn.joint(std::vector<int>{r, s, w});
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(BayesianNetwork, MarginalsMatchHandComputation) {
  const BayesianNetwork bn = sprinkler();
  EXPECT_NEAR(bn.marginal(0, 1), 0.2, 1e-12);
  // P[wet] = sum over r,s.
  double wet = 0.0;
  for (int r = 0; r < 2; ++r)
    for (int s = 0; s < 2; ++s) wet += bn.joint(std::vector<int>{r, s, 1});
  EXPECT_NEAR(bn.marginal(2, 1), wet, 1e-12);
}

TEST(BayesianNetwork, PosteriorWithEvidence) {
  const BayesianNetwork bn = sprinkler();
  // Classic query: P[rain | wet]. Compute by hand from the joint.
  double rain_and_wet = 0.0, wet = 0.0;
  for (int r = 0; r < 2; ++r)
    for (int s = 0; s < 2; ++s) {
      const double p = bn.joint(std::vector<int>{r, s, 1});
      wet += p;
      if (r == 1) rain_and_wet += p;
    }
  const Ev e{2, 1};
  const auto post = bn.posterior(0, std::span(&e, 1));
  EXPECT_NEAR(post[1], rain_and_wet / wet, 1e-12);
  EXPECT_NEAR(post[0] + post[1], 1.0, 1e-12);
}

TEST(BayesianNetwork, ExplainingAway) {
  // Given wet grass, learning the sprinkler ran lowers P[rain].
  const BayesianNetwork bn = sprinkler();
  const Ev wet{2, 1};
  const std::vector<Ev> wet_and_sprinkler{{2, 1}, {1, 1}};
  const double p_rain_wet = bn.posterior(0, std::span(&wet, 1))[1];
  const double p_rain_wet_spr = bn.posterior(0, wet_and_sprinkler)[1];
  EXPECT_LT(p_rain_wet_spr, p_rain_wet);
}

TEST(BayesianNetwork, ValidationErrors) {
  BayesianNetwork bn;
  EXPECT_THROW(bn.add_node("", 2, {}, {0.5, 0.5}), std::invalid_argument);
  EXPECT_THROW(bn.add_node("x", 1, {}, {1.0}), std::invalid_argument);
  EXPECT_THROW(bn.add_node("x", 2, {}, {0.6, 0.6}), std::invalid_argument);
  EXPECT_THROW(bn.add_node("x", 2, {}, {0.5}), std::invalid_argument);
  EXPECT_THROW(bn.add_node("x", 2, {5}, {0.5, 0.5}), std::out_of_range);
  const auto a = bn.add_node("a", 2, {}, {0.5, 0.5});
  EXPECT_THROW((void)bn.joint(std::vector<int>{2}), std::out_of_range);
  EXPECT_THROW(bn.posterior(9), std::out_of_range);
  const Ev impossible{a, 0};
  bn.add_node("b", 2, {a}, {1.0, 0.0, 1.0, 0.0});
  // Evidence with probability zero (b=1 never happens).
  const Ev b_one{1, 1};
  EXPECT_THROW(bn.posterior(a, std::span(&b_one, 1)), std::invalid_argument);
  (void)impossible;
}

StagedAttackModel uniform_model(double p, double det = 0.0) {
  StagedAttackModel m;
  for (auto& t : m.transitions) {
    t.attempt_rate = 1.0;
    t.success_probability = p;
    t.detection_rate = det;
  }
  return m;
}

TEST(AttackBn, ChainStructureAndMonotonicity) {
  const auto bn_hi = make_attack_bayesian_network(uniform_model(0.9), 500.0);
  const auto bn_lo = make_attack_bayesian_network(uniform_model(0.2), 500.0);
  EXPECT_GT(bn_hi.impairment_probability(), bn_lo.impairment_probability());
  // Stage marginals are non-increasing along the chain.
  double prev = 1.0;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const double p = bn_hi.network.marginal(bn_hi.stage_node[i], 1);
    EXPECT_LE(p, prev + 1e-12);
    prev = p;
  }
}

TEST(AttackBn, LongHorizonCertainSuccessWithoutDetection) {
  const auto bn = make_attack_bayesian_network(uniform_model(1.0), 1e6);
  EXPECT_NEAR(bn.impairment_probability(), 1.0, 1e-6);
  EXPECT_NEAR(bn.network.marginal(bn.detected_node, 1), 0.0, 1e-12);
}

TEST(AttackBn, DetectionRespondsToRates) {
  const auto quiet = make_attack_bayesian_network(uniform_model(0.8, 0.0001), 500.0);
  const auto loud = make_attack_bayesian_network(uniform_model(0.8, 0.05), 500.0);
  EXPECT_GT(loud.network.marginal(loud.detected_node, 1),
            quiet.network.marginal(quiet.detected_node, 1));
  EXPECT_LT(loud.impairment_probability(), quiet.impairment_probability());
}

TEST(AttackBn, AgreesWithSanOnConfigurationOrdering) {
  // The static BN abstraction and the dynamic SAN must rank a hard
  // configuration below an easy one.
  const StagedAttackModel easy = uniform_model(0.8, 0.001);
  const StagedAttackModel hard = uniform_model(0.1, 0.001);
  const double horizon = 200.0;
  const auto bn_easy = make_attack_bayesian_network(easy, horizon);
  const auto bn_hard = make_attack_bayesian_network(hard, horizon);
  const auto san_p = [horizon](const StagedAttackModel& m) {
    const AttackSan a = build_attack_san(m);
    return san::first_passage(a.model, a.success_predicate(), horizon, 3000, 3)
        .absorption_probability();
  };
  EXPECT_GT(bn_easy.impairment_probability(), bn_hard.impairment_probability());
  EXPECT_GT(san_p(easy), san_p(hard));
}

TEST(AttackBn, InvalidHorizonRejected) {
  EXPECT_THROW(make_attack_bayesian_network(uniform_model(0.5), 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace divsec::attack
