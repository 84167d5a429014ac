// Tests for divers/gadgets.h and divers/aslr.h — exploit-reuse metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "divers/aslr.h"
#include "divers/gadgets.h"
#include "divers/transforms.h"

namespace divsec::divers {
namespace {

Program sample_program(std::uint64_t seed) {
  stats::Rng rng(seed);
  GeneratorOptions opts;
  opts.blocks = 16;
  opts.instructions_per_block = 10;
  return generate_program(rng, opts);
}

TEST(Gadgets, ExtractionFindsReturnSuffixes) {
  const Program p = sample_program(1);
  const auto gadgets = extract_gadgets(p);
  EXPECT_FALSE(gadgets.empty());
  for (const auto& g : gadgets) {
    EXPECT_FALSE(g.bytes.empty());
    EXPECT_EQ(g.bytes.size() % 4, 0u);
    // Last encoded unit is a return terminator: 0xF0 | kReturn.
    const std::uint8_t tag = g.bytes[g.bytes.size() - 4];
    EXPECT_EQ(tag, 0xF0 | static_cast<std::uint8_t>(TerminatorKind::kReturn));
  }
}

TEST(Gadgets, MaxLengthRespected) {
  const Program p = sample_program(2);
  GadgetOptions opts;
  opts.max_instructions = 2;
  for (const auto& g : extract_gadgets(p, opts))
    EXPECT_LE(g.bytes.size(), (2 + 1) * 4u);
}

TEST(Gadgets, SelfSurvivalIsOne) {
  const Program p = sample_program(3);
  EXPECT_DOUBLE_EQ(gadget_survival(p, p), 1.0);
}

TEST(Gadgets, CrossProgramSurvivalIsNearZero) {
  const Program a = sample_program(4);
  const Program b = sample_program(5);
  EXPECT_LT(gadget_survival(a, b), 0.05);
}

TEST(Gadgets, TransformsReduceSurvivalMonotonically) {
  // Averaged over programs: mild patch-style rebuilds must keep strictly
  // more gadgets usable than the full multicompiler pipeline.
  TransformConfig mild;
  mild.nop_insertion = true;
  mild.nop_density = 0.05;
  mild.instruction_substitution = false;
  mild.register_renaming = false;
  mild.block_reordering = false;

  double acc_mild = 0.0, acc_full = 0.0;
  constexpr int kPrograms = 10;
  for (int i = 0; i < kPrograms; ++i) {
    const Program base = sample_program(600 + i);
    stats::Rng r1(700 + i), r2(800 + i);
    acc_mild += gadget_survival(base, diversify(base, mild, r1));
    acc_full += gadget_survival(base, diversify(base, TransformConfig::all(), r2));
  }
  const double s_mild = acc_mild / kPrograms;
  const double s_full = acc_full / kPrograms;
  EXPECT_LT(s_mild, 1.0);
  EXPECT_GT(s_mild, 0.2);  // patch siblings keep a meaningful fraction
  EXPECT_GT(s_mild, s_full + 0.2);
  EXPECT_LT(s_full, 0.05);
}

TEST(Gadgets, NopInsertionAloneBreaksAddresses) {
  const Program base = sample_program(8);
  stats::Rng rng(9);
  const Program shifted = nop_insertion(base, 0.3, rng);
  EXPECT_LT(gadget_survival(base, shifted), 0.6);
}

TEST(Gadgets, BlockReorderingAloneBreaksLayoutSlots) {
  const Program base = sample_program(12);
  stats::Rng rng(13);
  const Program shuffled = block_reordering(base, rng);
  // Gadget bytes are intact but block slots moved: survival collapses.
  EXPECT_LT(gadget_survival(base, shuffled), 0.3);
}

TEST(Gadgets, EmptyReferenceSurvivesTrivially) {
  // A program whose blocks never return has no gadgets.
  Program p;
  p.blocks.resize(2);
  p.blocks[0].term = {TerminatorKind::kJump, 0, 1, 0};
  p.blocks[1].term = {TerminatorKind::kJump, 0, 0, 0};
  const Program q = sample_program(10);
  EXPECT_DOUBLE_EQ(gadget_survival(p, q), 1.0);
}

TEST(Aslr, PerAttemptIsTwoToMinusBits) {
  EXPECT_DOUBLE_EQ(AslrModel(0).per_attempt_success(), 1.0);
  EXPECT_DOUBLE_EQ(AslrModel(8).per_attempt_success(), 1.0 / 256.0);
  EXPECT_DOUBLE_EQ(AslrModel(16).per_attempt_success(), 1.0 / 65536.0);
}

TEST(Aslr, SuccessWithinIsMonotoneAndBounded) {
  const AslrModel m(12);
  double prev = 0.0;
  for (std::uint64_t n : {1ull, 10ull, 100ull, 10000ull, 1000000ull}) {
    const double p = m.success_within(n);
    EXPECT_GE(p, prev);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
  EXPECT_NEAR(m.success_within(1), m.per_attempt_success(), 1e-15);
  EXPECT_NEAR(AslrModel(0).success_within(1), 1.0, 1e-15);
}

TEST(Aslr, ExpectedAttemptsMatchesEntropy) {
  EXPECT_DOUBLE_EQ(AslrModel(10).expected_attempts(), 1024.0);
}

TEST(Aslr, RejectsBadEntropy) {
  EXPECT_THROW(AslrModel(-1), std::invalid_argument);
  EXPECT_THROW(AslrModel(49), std::invalid_argument);
}

}  // namespace
}  // namespace divsec::divers
