// transforms.h — multicompiler-style diversifying transformations.
//
// Each transform rewrites a Program into a semantically equivalent
// variant (property-tested against the interpreter): the point is to
// change the *byte image* so that hardcoded gadget addresses and byte
// signatures from an exploit developed against one variant stop matching
// another. The four classic families implemented here mirror the
// literature (Larsen et al., "SoK: Automated Software Diversity"):
//
//  * NOP insertion       — shifts addresses of everything downstream
//  * instruction substitution — rewrites idioms to equivalent encodings
//  * register renaming   — permutes register operands program-wide
//  * block reordering    — shuffles basic-block layout (entry stays first)
#pragma once

#include "divers/ir.h"
#include "stats/rng.h"

namespace divsec::divers {

struct TransformConfig {
  bool nop_insertion = true;
  /// Probability of inserting a NOP before each instruction.
  double nop_density = 0.15;
  bool instruction_substitution = true;
  /// Probability of applying an available substitution at a site.
  double substitution_probability = 0.8;
  bool register_renaming = true;
  bool block_reordering = true;

  /// No transforms enabled (identity pipeline).
  [[nodiscard]] static TransformConfig none() {
    return TransformConfig{false, 0.0, false, 0.0, false, false};
  }
  /// Everything on at full strength.
  [[nodiscard]] static TransformConfig all() {
    return TransformConfig{true, 0.3, true, 1.0, true, true};
  }
};

/// Insert NOPs with probability `density` before each instruction.
[[nodiscard]] Program nop_insertion(const Program& p, double density, stats::Rng& rng);

/// Apply semantics-preserving instruction rewrites:
///   mov d,s        <-> or  d,s,s   <-> and d,s,s
///   xor d,a,a       -> movi d,0
///   add/mul/xor/and/or d,a,b -> operand swap (commutativity)
///   add d,a,a       -> shl d,a,[r]=1 is NOT applied (needs a scratch reg).
[[nodiscard]] Program instruction_substitution(const Program& p, double probability,
                                               stats::Rng& rng);

/// Apply a uniformly random register permutation to every operand.
/// Semantics are preserved because registers are internal state that
/// starts zeroed (program I/O goes through memory).
[[nodiscard]] Program register_renaming(const Program& p, stats::Rng& rng);

/// Shuffle block layout (block 0 stays the entry); terminator targets are
/// remapped so control flow is unchanged.
[[nodiscard]] Program block_reordering(const Program& p, stats::Rng& rng);

/// Full pipeline in the order: substitution, renaming, NOP insertion,
/// reordering (the order used by multicompiler builds: semantic rewrites
/// first, layout last).
[[nodiscard]] Program diversify(const Program& p, const TransformConfig& cfg,
                                stats::Rng& rng);

}  // namespace divsec::divers
