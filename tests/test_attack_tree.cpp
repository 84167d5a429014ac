// Tests for attack/attack_tree.h and attack/stages.h.
#include <gtest/gtest.h>

#include <cmath>

#include "attack/attack_tree.h"
#include "attack/stages.h"

namespace divsec::attack {
namespace {

TEST(Stages, Names) {
  EXPECT_STREQ(to_string(Stage::kInitial), "initial");
  EXPECT_STREQ(to_string(Stage::kDeviceImpairment), "device-impairment");
  EXPECT_EQ(kStageCount, 5u);
}

TEST(StagedModel, ExpectedTimesAndValidation) {
  StagedAttackModel m;
  for (auto& t : m.transitions) {
    t.attempt_rate = 2.0;
    t.success_probability = 0.5;
  }
  // Geometric attempts at exp(2) spacing with p=0.5: mean 1/(2*0.5) = 1.
  EXPECT_DOUBLE_EQ(m.expected_stage_time(0), 1.0);
  EXPECT_DOUBLE_EQ(m.expected_total_time(), 5.0);
  m.transitions[2].success_probability = 0.0;
  EXPECT_TRUE(std::isinf(m.expected_stage_time(2)));
  m.transitions[2].success_probability = 1.5;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m.transitions[2].success_probability = 0.5;
  m.transitions[0].attempt_rate = 0.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m.transitions[0].attempt_rate = 1.0;
  m.impairment_detection_rate = -1.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(AttackTree, LeafProbabilities) {
  AttackTree t;
  const auto leaf = t.add_leaf("x", 0.3);
  t.set_root(leaf);
  EXPECT_DOUBLE_EQ(t.success_probability(), 0.3);
}

TEST(AttackTree, AndMultipliesOrComplements) {
  AttackTree t;
  const auto a = t.add_leaf("a", 0.5);
  const auto b = t.add_leaf("b", 0.4);
  const auto and_node = t.add_and("and", {a, b});
  t.set_root(and_node);
  EXPECT_DOUBLE_EQ(t.success_probability(), 0.2);

  AttackTree u;
  const auto c = u.add_leaf("c", 0.5);
  const auto d = u.add_leaf("d", 0.4);
  const auto or_node = u.add_or("or", {c, d});
  u.set_root(or_node);
  EXPECT_DOUBLE_EQ(u.success_probability(), 1.0 - 0.5 * 0.6);
}

TEST(AttackTree, NestedGateEvaluation) {
  // (a OR b) AND c.
  AttackTree t;
  const auto a = t.add_leaf("a", 0.5);
  const auto b = t.add_leaf("b", 0.5);
  const auto c = t.add_leaf("c", 0.8);
  const auto or_ab = t.add_or("or", {a, b});
  t.set_root(t.add_and("root", {or_ab, c}));
  EXPECT_DOUBLE_EQ(t.success_probability(), 0.75 * 0.8);
}

TEST(AttackTree, Validation) {
  AttackTree t;
  EXPECT_THROW(t.add_leaf("bad", 1.5), std::invalid_argument);
  EXPECT_THROW(t.add_leaf("bad", -0.5), std::invalid_argument);
  EXPECT_THROW(t.add_and("empty", {}), std::invalid_argument);
  const auto a = t.add_leaf("a", 0.5);
  EXPECT_THROW(t.add_or("bad", {a, 99}), std::out_of_range);
  EXPECT_THROW((void)t.root(), std::logic_error);
  EXPECT_THROW(t.set_root(42), std::out_of_range);
}

TEST(AttackTree, StagedTreeMatchesPaperStructure) {
  const AttackTree t = make_staged_attack_tree(0.6, 0.9, 0.8, 0.5, 0.85);
  // 8 leaves, an OR over the 3 delivery vectors, an OR over the 2
  // propagation hops, and the AND of the five stages at the root.
  EXPECT_EQ(t.node_count(), 11u);
  EXPECT_EQ(t.kind(t.root()), AttackTree::GateKind::kAnd);
  const double delivery = 1.0 - (1.0 - 0.6) * (1.0 - 0.36) * (1.0 - 0.24);
  const double propagation = 1.0 - (1.0 - 0.5) * (1.0 - 0.4);
  const double p = t.success_probability();
  EXPECT_NEAR(p, delivery * 0.9 * 0.8 * propagation * 0.85, 1e-12);
  // Lowering the PLC payload probability must lower overall success.
  AttackTree weaker = make_staged_attack_tree(0.6, 0.9, 0.8, 0.5, 0.2);
  EXPECT_LT(weaker.success_probability(), p);
}

}  // namespace
}  // namespace divsec::attack
