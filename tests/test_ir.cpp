// Tests for divers/ir.h — the toy ISA: validation, encoding, execution.
#include <gtest/gtest.h>

#include "divers/ir.h"

namespace divsec::divers {
namespace {

Program tiny_store_program() {
  // mem[1] = mem[0] + 7.
  Program p;
  BasicBlock b;
  b.body.push_back({Opcode::kMovImm, 0, 0, 0, 0});   // r0 = 0 (address)
  b.body.push_back({Opcode::kLoad, 1, 0, 0, 0});     // r1 = mem[r0]
  b.body.push_back({Opcode::kMovImm, 2, 0, 0, 7});   // r2 = 7
  b.body.push_back({Opcode::kAdd, 3, 1, 2, 0});      // r3 = r1 + r2
  b.body.push_back({Opcode::kMovImm, 4, 0, 0, 1});   // r4 = 1 (address)
  b.body.push_back({Opcode::kStore, 0, 4, 3, 0});    // mem[r4] = r3
  b.term = {TerminatorKind::kReturn, 0, 0, 0};
  p.blocks.push_back(b);
  return p;
}

TEST(Ir, ExecuteComputesExpectedResult) {
  const Program p = tiny_store_program();
  const auto r = execute(p, {35});
  EXPECT_FALSE(r.hit_step_limit);
  EXPECT_EQ(r.memory[1], 42);
}

TEST(Ir, RegistersStartAtZero) {
  Program p;
  BasicBlock b;
  b.body.push_back({Opcode::kMovImm, 0, 0, 0, 3});  // r0 = 3 (address)
  b.body.push_back({Opcode::kStore, 0, 0, 5, 0});   // mem[3] = r5 (= 0)
  b.term = {TerminatorKind::kReturn, 0, 0, 0};
  p.blocks.push_back(b);
  const auto r = execute(p, {9, 9, 9, 9});
  EXPECT_EQ(r.memory[3], 0);
}

TEST(Ir, BranchTakesConditionPath) {
  // if mem[0] != 0 -> mem[1] = 100 else mem[1] = 200.
  Program p;
  p.blocks.resize(4);
  p.blocks[0].body.push_back({Opcode::kMovImm, 0, 0, 0, 0});
  p.blocks[0].body.push_back({Opcode::kLoad, 1, 0, 0, 0});
  p.blocks[0].term = {TerminatorKind::kBranch, 1, 1, 2};
  p.blocks[1].body.push_back({Opcode::kMovImm, 2, 0, 0, 100});
  p.blocks[1].term = {TerminatorKind::kJump, 0, 3, 0};
  p.blocks[2].body.push_back({Opcode::kMovImm, 2, 0, 0, 200});
  p.blocks[2].term = {TerminatorKind::kJump, 0, 3, 0};
  p.blocks[3].body.push_back({Opcode::kMovImm, 3, 0, 0, 1});
  p.blocks[3].body.push_back({Opcode::kStore, 0, 3, 2, 0});
  p.blocks[3].term = {TerminatorKind::kReturn, 0, 0, 0};
  EXPECT_EQ(execute(p, {1}).memory[1], 100);
  EXPECT_EQ(execute(p, {0}).memory[1], 200);
}

TEST(Ir, CmpLtIsSigned) {
  Program p;
  BasicBlock b;
  b.body.push_back({Opcode::kMovImm, 0, 0, 0, -5});
  b.body.push_back({Opcode::kMovImm, 1, 0, 0, 3});
  b.body.push_back({Opcode::kCmpLt, 2, 0, 1, 0});   // r2 = (-5 < 3) = 1
  b.body.push_back({Opcode::kMovImm, 3, 0, 0, 0});
  b.body.push_back({Opcode::kStore, 0, 3, 2, 0});   // mem[0] = r2
  b.term = {TerminatorKind::kReturn, 0, 0, 0};
  p.blocks.push_back(b);
  EXPECT_EQ(execute(p, {}).memory[0], 1);
}

TEST(Ir, InfiniteLoopHitsStepLimit) {
  Program p;
  BasicBlock b;
  b.term = {TerminatorKind::kJump, 0, 0, 0};  // jump to self
  p.blocks.push_back(b);
  const auto r = execute(p, {}, /*max_steps=*/1000);
  EXPECT_TRUE(r.hit_step_limit);
}

TEST(Ir, ValidationCatchesBadPrograms) {
  Program empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);

  Program bad_reg;
  bad_reg.blocks.resize(1);
  bad_reg.blocks[0].body.push_back({Opcode::kAdd, 9, 0, 0, 0});
  bad_reg.blocks[0].term = {TerminatorKind::kReturn, 0, 0, 0};
  EXPECT_THROW(bad_reg.validate(), std::invalid_argument);

  Program bad_jump;
  bad_jump.blocks.resize(1);
  bad_jump.blocks[0].term = {TerminatorKind::kJump, 0, 5, 0};
  EXPECT_THROW(bad_jump.validate(), std::invalid_argument);

  Program bad_branch;
  bad_branch.blocks.resize(2);
  bad_branch.blocks[0].term = {TerminatorKind::kBranch, 0, 1, 7};
  bad_branch.blocks[1].term = {TerminatorKind::kReturn, 0, 0, 0};
  EXPECT_THROW(bad_branch.validate(), std::invalid_argument);
}

TEST(Ir, EncodeIsFourBytesPerInstructionAndTerminator) {
  const Program p = tiny_store_program();
  const auto bytes = encode(p);
  EXPECT_EQ(bytes.size(), (p.instruction_count() + p.blocks.size()) * 4);
}

TEST(Ir, EncodeIsDeterministicAndContentSensitive) {
  const Program p = tiny_store_program();
  EXPECT_EQ(encode(p), encode(p));
  Program q = p;
  q.blocks[0].body[2].imm = 8;  // change the constant
  EXPECT_NE(encode(p), encode(q));
}

TEST(IrGenerator, GeneratedProgramsTerminate) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    stats::Rng rng(seed);
    const Program p = generate_program(rng);
    const auto r = execute(p, {1, 2, 3});
    EXPECT_FALSE(r.hit_step_limit) << "seed " << seed;
  }
}

TEST(IrGenerator, DeterministicInSeed) {
  stats::Rng a(5), b(5);
  const Program pa = generate_program(a);
  const Program pb = generate_program(b);
  EXPECT_EQ(encode(pa), encode(pb));
}

TEST(IrGenerator, RespectsOptions) {
  stats::Rng rng(6);
  GeneratorOptions opts;
  opts.blocks = 7;
  opts.instructions_per_block = 3;
  const Program p = generate_program(rng, opts);
  EXPECT_EQ(p.blocks.size(), 7u);
  EXPECT_EQ(p.instruction_count(), 21u);
  EXPECT_THROW(generate_program(rng, GeneratorOptions{0, 1, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace divsec::divers
