// Tests for divers/transforms.h — the key property: every diversifying
// transform preserves input/output semantics while changing the binary.
#include <gtest/gtest.h>

#include "divers/ir.h"
#include "divers/transforms.h"

namespace divsec::divers {
namespace {

std::vector<std::int64_t> run(const Program& p, std::uint64_t input_seed) {
  stats::Rng rng(input_seed);
  std::vector<std::int64_t> input(kMemoryWords);
  for (auto& w : input) w = static_cast<std::int64_t>(rng.below(1000)) - 500;
  const auto r = execute(p, input);
  EXPECT_FALSE(r.hit_step_limit);
  return r.memory;
}

/// Property harness: transform(program) must be I/O-equivalent to program
/// on several random memory images, across several random programs.
void expect_semantics_preserved(
    const std::function<Program(const Program&, stats::Rng&)>& transform,
    const char* label) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    stats::Rng gen(seed);
    const Program original = generate_program(gen);
    stats::Rng trng(seed ^ 0xABCDEF);
    const Program variant = transform(original, trng);
    for (std::uint64_t in = 0; in < 4; ++in) {
      EXPECT_EQ(run(original, in), run(variant, in))
          << label << " broke semantics (program seed " << seed << ", input "
          << in << ")";
    }
  }
}

TEST(Transforms, NopInsertionPreservesSemantics) {
  expect_semantics_preserved(
      [](const Program& p, stats::Rng& rng) { return nop_insertion(p, 0.5, rng); },
      "nop_insertion");
}

TEST(Transforms, SubstitutionPreservesSemantics) {
  expect_semantics_preserved(
      [](const Program& p, stats::Rng& rng) {
        return instruction_substitution(p, 1.0, rng);
      },
      "instruction_substitution");
}

TEST(Transforms, RegisterRenamingPreservesSemantics) {
  expect_semantics_preserved(
      [](const Program& p, stats::Rng& rng) { return register_renaming(p, rng); },
      "register_renaming");
}

TEST(Transforms, BlockReorderingPreservesSemantics) {
  expect_semantics_preserved(
      [](const Program& p, stats::Rng& rng) { return block_reordering(p, rng); },
      "block_reordering");
}

TEST(Transforms, FullPipelinePreservesSemantics) {
  expect_semantics_preserved(
      [](const Program& p, stats::Rng& rng) {
        return diversify(p, TransformConfig::all(), rng);
      },
      "diversify(all)");
}

TEST(Transforms, NopInsertionGrowsTheProgram) {
  stats::Rng gen(1);
  const Program p = generate_program(gen);
  stats::Rng rng(2);
  const Program q = nop_insertion(p, 0.5, rng);
  EXPECT_GT(q.instruction_count(), p.instruction_count());
  stats::Rng rng2(3);
  const Program zero = nop_insertion(p, 0.0, rng2);
  EXPECT_EQ(zero.instruction_count(), p.instruction_count());
}

TEST(Transforms, NopDensityValidated) {
  stats::Rng gen(1), rng(2);
  const Program p = generate_program(gen);
  EXPECT_THROW(nop_insertion(p, -0.1, rng), std::invalid_argument);
  EXPECT_THROW(nop_insertion(p, 1.1, rng), std::invalid_argument);
  EXPECT_THROW(instruction_substitution(p, 2.0, rng), std::invalid_argument);
}

TEST(Transforms, SubstitutionChangesEncodingButNotCount) {
  stats::Rng gen(4);
  const Program p = generate_program(gen);
  stats::Rng rng(5);
  const Program q = instruction_substitution(p, 1.0, rng);
  EXPECT_EQ(q.instruction_count(), p.instruction_count());
  EXPECT_NE(encode(p), encode(q));
}

TEST(Transforms, RenamingAppliesAPermutation) {
  stats::Rng gen(6);
  const Program p = generate_program(gen);
  stats::Rng rng(7);
  const Program q = register_renaming(p, rng);
  // Same opcode sequence, same block structure.
  ASSERT_EQ(q.blocks.size(), p.blocks.size());
  for (std::size_t b = 0; b < p.blocks.size(); ++b) {
    ASSERT_EQ(q.blocks[b].body.size(), p.blocks[b].body.size());
    for (std::size_t i = 0; i < p.blocks[b].body.size(); ++i)
      EXPECT_EQ(q.blocks[b].body[i].op, p.blocks[b].body[i].op);
  }
}

TEST(Transforms, ReorderingKeepsEntryBlockFirst) {
  stats::Rng gen(8);
  const Program p = generate_program(gen);
  stats::Rng rng(9);
  const Program q = block_reordering(p, rng);
  ASSERT_FALSE(q.blocks.empty());
  // Entry block content identical (it stays at position 0).
  ASSERT_EQ(q.blocks[0].body.size(), p.blocks[0].body.size());
  for (std::size_t i = 0; i < p.blocks[0].body.size(); ++i)
    EXPECT_EQ(q.blocks[0].body[i].op, p.blocks[0].body[i].op);
  q.validate();
}

TEST(Transforms, TinyProgramsReorderToThemselves) {
  Program p;
  p.blocks.resize(2);
  p.blocks[0].term = {TerminatorKind::kJump, 0, 1, 0};
  p.blocks[1].term = {TerminatorKind::kReturn, 0, 0, 0};
  stats::Rng rng(10);
  const Program q = block_reordering(p, rng);
  EXPECT_EQ(encode(p), encode(q));
}

TEST(Transforms, ConfigNoneIsIdentity) {
  stats::Rng gen(11), rng(12);
  const Program p = generate_program(gen);
  const Program q = diversify(p, TransformConfig::none(), rng);
  EXPECT_EQ(encode(p), encode(q));
}

}  // namespace
}  // namespace divsec::divers
