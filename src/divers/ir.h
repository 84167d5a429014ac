// ir.h — a small register-machine IR standing in for component firmware.
//
// The diversity literature (multicompilers, binary randomization) is about
// real binaries; we reproduce the *mechanism* on a toy ISA so that
// diversification is a real code-level operation in this library rather
// than a hand-set probability: transforms rewrite programs
// (transforms.h), gadget analysis measures what an exploit developed
// against variant A can still reuse on variant B (gadgets.h), and the
// variant catalog turns that into attack-stage success probabilities
// (variants.h).
//
// The machine: 8 general registers (zero-initialized), a flat word memory
// used for program input/output, basic blocks with explicit terminators
// (jump / conditional branch / return). Programs always terminate under
// the interpreter's step budget; the generator only emits forward
// branches so well-formed generated programs terminate naturally.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "stats/rng.h"

namespace divsec::divers {

inline constexpr std::size_t kRegisterCount = 8;
inline constexpr std::size_t kMemoryWords = 64;

enum class Opcode : std::uint8_t {
  kNop = 0,
  kMovReg,   // dst = src1
  kMovImm,   // dst = imm
  kAdd,      // dst = src1 + src2
  kSub,      // dst = src1 - src2
  kMul,      // dst = src1 * src2
  kXor,      // dst = src1 ^ src2
  kAnd,      // dst = src1 & src2
  kOr,       // dst = src1 | src2
  kShl,      // dst = src1 << (src2 & 63)
  kShr,      // dst = src1 >> (src2 & 63)
  kLoad,     // dst = mem[src1 % kMemoryWords]
  kStore,    // mem[src1 % kMemoryWords] = src2
  kCmpLt,    // dst = (src1 < src2) ? 1 : 0   (signed)
};

struct Instruction {
  Opcode op = Opcode::kNop;
  std::uint8_t dst = 0;
  std::uint8_t src1 = 0;
  std::uint8_t src2 = 0;
  std::int32_t imm = 0;  // kMovImm only
};

enum class TerminatorKind : std::uint8_t {
  kJump,    // goto target
  kBranch,  // if reg != 0 goto target else goto fallthrough
  kReturn,
};

struct Terminator {
  TerminatorKind kind = TerminatorKind::kReturn;
  std::uint8_t reg = 0;          // kBranch condition register
  std::size_t target = 0;        // kJump / kBranch taken target (block index)
  std::size_t fallthrough = 0;   // kBranch not-taken target
};

struct BasicBlock {
  std::vector<Instruction> body;
  Terminator term;
};

/// A program is a list of basic blocks; execution starts at block 0.
struct Program {
  std::vector<BasicBlock> blocks;

  [[nodiscard]] std::size_t instruction_count() const noexcept;
  /// Structural checks: terminator targets in range, register ids valid.
  void validate() const;
};

/// Fixed 4-byte instruction encoding (opcode, dst, src1, src2) /
/// (opcode, dst, imm16); terminators encode too. The byte image is the
/// "binary" that gadget analysis scans, and byte offsets are the
/// addresses an exploit would hardcode.
[[nodiscard]] std::vector<std::uint8_t> encode(const Program& p);

struct ExecutionResult {
  std::vector<std::int64_t> memory;  // final memory image
  std::size_t steps = 0;
  bool hit_step_limit = false;
};

/// Run the program on the given input memory image (padded/truncated to
/// kMemoryWords). Registers start at zero.
[[nodiscard]] ExecutionResult execute(const Program& p,
                                      const std::vector<std::int64_t>& input,
                                      std::size_t max_steps = 100000);

struct GeneratorOptions {
  std::size_t blocks = 12;
  std::size_t instructions_per_block = 10;
  /// Probability a block ends in a conditional branch (vs jump).
  double branch_probability = 0.4;
  /// Probability a non-final block ends in a return (function epilogues;
  /// these are what gadget extraction anchors on). The final block always
  /// returns.
  double return_probability = 0.2;
};

/// Deterministically generate a random (terminating) program: branches
/// only go forward and the final block returns.
[[nodiscard]] Program generate_program(stats::Rng& rng, const GeneratorOptions& opts = {});

}  // namespace divsec::divers
