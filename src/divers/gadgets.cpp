#include "divers/gadgets.h"

#include <algorithm>

namespace divsec::divers {

std::vector<std::uint8_t> encode_block(const BasicBlock& b) {
  Program one;
  one.blocks.push_back(b);
  // encode() of a single-block program is exactly that block's layout;
  // terminator targets are encoded by value, which is what we want: a
  // retargeted jump is a changed byte.
  return encode(one);
}

std::vector<Gadget> extract_gadgets(const Program& p, const GadgetOptions& opts) {
  std::vector<Gadget> out;
  for (std::size_t bi = 0; bi < p.blocks.size(); ++bi) {
    const BasicBlock& block = p.blocks[bi];
    if (block.term.kind != TerminatorKind::kReturn) continue;
    const std::vector<std::uint8_t> bytes = encode_block(block);
    const std::size_t body_len = block.body.size();
    const std::size_t max_take = std::min(opts.max_instructions, body_len);
    for (std::size_t take = 1; take <= max_take; ++take) {
      const std::size_t start = (body_len - take) * 4;
      Gadget g;
      g.block = bi;
      g.offset = start;
      g.bytes.assign(bytes.begin() + static_cast<std::ptrdiff_t>(start), bytes.end());
      out.push_back(std::move(g));
    }
  }
  return out;
}

double gadget_survival(const Program& reference, const Program& target,
                       const GadgetOptions& opts) {
  const auto ref = extract_gadgets(reference, opts);
  if (ref.empty()) return 1.0;
  // Pre-encode the target's blocks once.
  std::vector<std::vector<std::uint8_t>> target_blocks;
  target_blocks.reserve(target.blocks.size());
  for (const auto& b : target.blocks) target_blocks.push_back(encode_block(b));

  std::size_t surviving = 0;
  for (const auto& g : ref) {
    if (g.block >= target_blocks.size()) continue;
    const auto& tb = target_blocks[g.block];
    if (g.offset + g.bytes.size() > tb.size()) continue;
    if (std::equal(g.bytes.begin(), g.bytes.end(),
                   tb.begin() + static_cast<std::ptrdiff_t>(g.offset)))
      ++surviving;
  }
  return static_cast<double>(surviving) / static_cast<double>(ref.size());
}

}  // namespace divsec::divers
