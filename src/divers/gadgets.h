// gadgets.h — ROP-gadget extraction and cross-variant survival.
//
// A gadget is a short instruction suffix ending at a block return: the
// location + byte content an exploit payload would chain. Addresses are
// function-relative, i.e. (block index, byte offset within the block) —
// the granularity real incremental builds preserve: a service pack that
// does not touch a function leaves its gadgets usable, while multi-
// compiler transforms (substitution, renaming, NOP insertion, block
// reordering) invalidate content, offsets, or block positions. Survival
// from variant A to variant B is the fraction of A's gadgets an exploit
// hardcoded against A can still use on B unchanged — the canonical
// diversity-effectiveness metric (Larsen et al., SoK 2014).
#pragma once

#include <cstdint>
#include <vector>

#include "divers/ir.h"

namespace divsec::divers {

struct Gadget {
  std::size_t block = 0;    // basic-block index (layout slot)
  std::size_t offset = 0;   // byte offset of the first instruction in-block
  std::vector<std::uint8_t> bytes;  // encoded instructions + return
  bool operator==(const Gadget&) const = default;
};

struct GadgetOptions {
  /// Maximum gadget length in instructions (excluding the return).
  std::size_t max_instructions = 4;
};

/// Encode one basic block exactly as encode() lays it out.
[[nodiscard]] std::vector<std::uint8_t> encode_block(const BasicBlock& b);

/// All gadgets of a program: for every return terminator, the suffixes of
/// up to max_instructions body instructions that end at it.
[[nodiscard]] std::vector<Gadget> extract_gadgets(const Program& p,
                                                  const GadgetOptions& opts = {});

/// Fraction of `reference` gadgets usable unchanged on `target` (same
/// block slot, same in-block offset, same bytes). 1.0 means an exploit
/// ports unmodified; 0.0 means every hardcoded gadget broke. Returns 1.0
/// when the reference has no gadgets (nothing to break).
[[nodiscard]] double gadget_survival(const Program& reference, const Program& target,
                                     const GadgetOptions& opts = {});

}  // namespace divsec::divers
