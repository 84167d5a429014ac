#include "divers/transforms.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

namespace divsec::divers {

Program nop_insertion(const Program& p, double density, stats::Rng& rng) {
  if (density < 0.0 || density > 1.0)
    throw std::invalid_argument("nop_insertion: density in [0,1]");
  Program out;
  out.blocks.reserve(p.blocks.size());
  for (const auto& b : p.blocks) {
    BasicBlock nb;
    nb.term = b.term;
    for (const auto& ins : b.body) {
      if (rng.uniform() < density) nb.body.push_back(Instruction{});  // NOP
      nb.body.push_back(ins);
    }
    out.blocks.push_back(std::move(nb));
  }
  return out;
}

Program instruction_substitution(const Program& p, double probability,
                                 stats::Rng& rng) {
  if (probability < 0.0 || probability > 1.0)
    throw std::invalid_argument("instruction_substitution: probability in [0,1]");
  Program out = p;
  for (auto& b : out.blocks) {
    for (auto& ins : b.body) {
      if (rng.uniform() >= probability) continue;
      switch (ins.op) {
        case Opcode::kMovReg:
          // mov d,s -> or d,s,s or and d,s,s
          ins.op = rng.bernoulli(0.5) ? Opcode::kOr : Opcode::kAnd;
          ins.src2 = ins.src1;
          break;
        case Opcode::kOr:
        case Opcode::kAnd:
          if (ins.src1 == ins.src2) {
            // or/and d,s,s -> mov d,s
            ins.op = Opcode::kMovReg;
          } else {
            std::swap(ins.src1, ins.src2);  // commutative
          }
          break;
        case Opcode::kXor:
          if (ins.src1 == ins.src2) {
            // xor d,a,a -> movi d,0
            ins.op = Opcode::kMovImm;
            ins.imm = 0;
          } else {
            std::swap(ins.src1, ins.src2);
          }
          break;
        case Opcode::kAdd:
        case Opcode::kMul:
          std::swap(ins.src1, ins.src2);
          break;
        default:
          break;  // no rewrite available
      }
    }
  }
  return out;
}

Program register_renaming(const Program& p, stats::Rng& rng) {
  std::array<std::uint8_t, kRegisterCount> perm{};
  std::iota(perm.begin(), perm.end(), std::uint8_t{0});
  for (std::size_t i = perm.size() - 1; i > 0; --i)
    std::swap(perm[i], perm[rng.below(i + 1)]);
  Program out = p;
  for (auto& b : out.blocks) {
    for (auto& ins : b.body) {
      ins.dst = perm[ins.dst];
      ins.src1 = perm[ins.src1];
      ins.src2 = perm[ins.src2];
    }
    if (b.term.kind == TerminatorKind::kBranch) b.term.reg = perm[b.term.reg];
  }
  return out;
}

Program block_reordering(const Program& p, stats::Rng& rng) {
  const std::size_t n = p.blocks.size();
  if (n <= 2) return p;
  // new_position[i] = where old block i lands. Entry stays at 0.
  std::vector<std::size_t> order(n);  // order[new_idx] = old_idx
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n - 1; i > 1; --i)
    std::swap(order[i], order[1 + rng.below(i)]);
  std::vector<std::size_t> new_position(n);
  for (std::size_t ni = 0; ni < n; ++ni) new_position[order[ni]] = ni;

  Program out;
  out.blocks.reserve(n);
  for (std::size_t ni = 0; ni < n; ++ni) {
    BasicBlock b = p.blocks[order[ni]];
    if (b.term.kind == TerminatorKind::kJump) {
      b.term.target = new_position[b.term.target];
    } else if (b.term.kind == TerminatorKind::kBranch) {
      b.term.target = new_position[b.term.target];
      b.term.fallthrough = new_position[b.term.fallthrough];
    }
    out.blocks.push_back(std::move(b));
  }
  return out;
}

Program diversify(const Program& p, const TransformConfig& cfg, stats::Rng& rng) {
  Program out = p;
  if (cfg.instruction_substitution)
    out = instruction_substitution(out, cfg.substitution_probability, rng);
  if (cfg.register_renaming) out = register_renaming(out, rng);
  if (cfg.nop_insertion) out = nop_insertion(out, cfg.nop_density, rng);
  if (cfg.block_reordering) out = block_reordering(out, rng);
  return out;
}

}  // namespace divsec::divers
