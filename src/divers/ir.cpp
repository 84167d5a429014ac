#include "divers/ir.h"

#include <stdexcept>

namespace divsec::divers {

std::size_t Program::instruction_count() const noexcept {
  std::size_t n = 0;
  for (const auto& b : blocks) n += b.body.size();
  return n;
}

void Program::validate() const {
  if (blocks.empty()) throw std::invalid_argument("Program: no blocks");
  for (const auto& b : blocks) {
    for (const auto& i : b.body) {
      if (i.dst >= kRegisterCount || i.src1 >= kRegisterCount ||
          i.src2 >= kRegisterCount)
        throw std::invalid_argument("Program: register id out of range");
    }
    switch (b.term.kind) {
      case TerminatorKind::kJump:
        if (b.term.target >= blocks.size())
          throw std::invalid_argument("Program: jump target out of range");
        break;
      case TerminatorKind::kBranch:
        if (b.term.target >= blocks.size() || b.term.fallthrough >= blocks.size())
          throw std::invalid_argument("Program: branch target out of range");
        if (b.term.reg >= kRegisterCount)
          throw std::invalid_argument("Program: branch register out of range");
        break;
      case TerminatorKind::kReturn:
        break;
    }
  }
}

std::vector<std::uint8_t> encode(const Program& p) {
  std::vector<std::uint8_t> out;
  out.reserve(p.instruction_count() * 4 + p.blocks.size() * 4);
  for (const auto& b : p.blocks) {
    for (const auto& i : b.body) {
      out.push_back(static_cast<std::uint8_t>(i.op));
      if (i.op == Opcode::kMovImm) {
        out.push_back(i.dst);
        out.push_back(static_cast<std::uint8_t>(i.imm & 0xFF));
        out.push_back(static_cast<std::uint8_t>((i.imm >> 8) & 0xFF));
      } else {
        out.push_back(i.dst);
        out.push_back(i.src1);
        out.push_back(i.src2);
      }
    }
    // Terminator: 0xF0 | kind, then operands.
    out.push_back(static_cast<std::uint8_t>(0xF0 | static_cast<std::uint8_t>(b.term.kind)));
    out.push_back(b.term.reg);
    out.push_back(static_cast<std::uint8_t>(b.term.target & 0xFF));
    out.push_back(static_cast<std::uint8_t>(b.term.fallthrough & 0xFF));
  }
  return out;
}

ExecutionResult execute(const Program& p, const std::vector<std::int64_t>& input,
                        std::size_t max_steps) {
  p.validate();
  ExecutionResult r;
  r.memory.assign(kMemoryWords, 0);
  for (std::size_t i = 0; i < input.size() && i < kMemoryWords; ++i)
    r.memory[i] = input[i];
  std::int64_t regs[kRegisterCount] = {};
  std::size_t bb = 0;
  for (;;) {
    const BasicBlock& block = p.blocks[bb];
    for (const auto& ins : block.body) {
      if (++r.steps > max_steps) {
        r.hit_step_limit = true;
        return r;
      }
      // Unsigned arithmetic internally to keep overflow well-defined.
      const auto a = static_cast<std::uint64_t>(regs[ins.src1]);
      const auto b = static_cast<std::uint64_t>(regs[ins.src2]);
      switch (ins.op) {
        case Opcode::kNop: break;
        case Opcode::kMovReg: regs[ins.dst] = regs[ins.src1]; break;
        case Opcode::kMovImm: regs[ins.dst] = ins.imm; break;
        case Opcode::kAdd: regs[ins.dst] = static_cast<std::int64_t>(a + b); break;
        case Opcode::kSub: regs[ins.dst] = static_cast<std::int64_t>(a - b); break;
        case Opcode::kMul: regs[ins.dst] = static_cast<std::int64_t>(a * b); break;
        case Opcode::kXor: regs[ins.dst] = static_cast<std::int64_t>(a ^ b); break;
        case Opcode::kAnd: regs[ins.dst] = static_cast<std::int64_t>(a & b); break;
        case Opcode::kOr: regs[ins.dst] = static_cast<std::int64_t>(a | b); break;
        case Opcode::kShl: regs[ins.dst] = static_cast<std::int64_t>(a << (b & 63)); break;
        case Opcode::kShr: regs[ins.dst] = static_cast<std::int64_t>(a >> (b & 63)); break;
        case Opcode::kLoad:
          regs[ins.dst] = r.memory[static_cast<std::size_t>(a % kMemoryWords)];
          break;
        case Opcode::kStore:
          r.memory[static_cast<std::size_t>(a % kMemoryWords)] = regs[ins.src2];
          break;
        case Opcode::kCmpLt:
          regs[ins.dst] = regs[ins.src1] < regs[ins.src2] ? 1 : 0;
          break;
      }
    }
    if (++r.steps > max_steps) {
      r.hit_step_limit = true;
      return r;
    }
    switch (block.term.kind) {
      case TerminatorKind::kJump: bb = block.term.target; break;
      case TerminatorKind::kBranch:
        bb = regs[block.term.reg] != 0 ? block.term.target : block.term.fallthrough;
        break;
      case TerminatorKind::kReturn: return r;
    }
  }
}

Program generate_program(stats::Rng& rng, const GeneratorOptions& opts) {
  if (opts.blocks == 0) throw std::invalid_argument("generate_program: need >= 1 block");
  Program p;
  p.blocks.resize(opts.blocks);
  static constexpr Opcode kBodyOps[] = {
      Opcode::kMovReg, Opcode::kMovImm, Opcode::kAdd, Opcode::kSub, Opcode::kMul,
      Opcode::kXor,    Opcode::kAnd,    Opcode::kOr,  Opcode::kShl, Opcode::kShr,
      Opcode::kLoad,   Opcode::kStore,  Opcode::kCmpLt};
  for (std::size_t b = 0; b < opts.blocks; ++b) {
    auto& block = p.blocks[b];
    block.body.reserve(opts.instructions_per_block);
    for (std::size_t i = 0; i < opts.instructions_per_block; ++i) {
      Instruction ins;
      ins.op = kBodyOps[rng.below(std::size(kBodyOps))];
      ins.dst = static_cast<std::uint8_t>(rng.below(kRegisterCount));
      ins.src1 = static_cast<std::uint8_t>(rng.below(kRegisterCount));
      ins.src2 = static_cast<std::uint8_t>(rng.below(kRegisterCount));
      ins.imm = static_cast<std::int32_t>(rng.below(0x10000)) - 0x8000;
      block.body.push_back(ins);
    }
    if (b + 1 == opts.blocks || rng.uniform() < opts.return_probability) {
      block.term = Terminator{TerminatorKind::kReturn, 0, 0, 0};
    } else if (rng.uniform() < opts.branch_probability) {
      // Forward-only targets guarantee termination.
      const std::size_t t1 = b + 1 + rng.below(opts.blocks - b - 1);
      const std::size_t t2 = b + 1 + rng.below(opts.blocks - b - 1);
      block.term = Terminator{TerminatorKind::kBranch,
                              static_cast<std::uint8_t>(rng.below(kRegisterCount)), t1, t2};
    } else {
      const std::size_t t = b + 1 + rng.below(opts.blocks - b - 1);
      block.term = Terminator{TerminatorKind::kJump, 0, t, 0};
    }
  }
  p.validate();
  return p;
}

}  // namespace divsec::divers
