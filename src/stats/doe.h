// doe.h — Design of Experiments.
//
// The paper's step 2 uses DoE "to narrow the number of configurations to
// assess". This module provides:
//   * mixed-level full factorial enumeration over a FactorSpace,
//   * 2-level full and fractional factorial designs (with generator words
//     and alias-structure computation),
//   * Plackett-Burman screening designs (Sylvester + Paley Hadamard
//     constructions),
// plus contrast-based effect estimation for 2-level designs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace divsec::stats {

/// A categorical experimental factor (e.g. "control-node OS") and its
/// levels (e.g. {"os.win7", "os.linux", "os.rtos"}).
struct Factor {
  std::string name;
  std::vector<std::string> levels;
};

/// The cartesian space of factor-level combinations.
class FactorSpace {
 public:
  FactorSpace() = default;
  explicit FactorSpace(std::vector<Factor> factors);

  [[nodiscard]] std::size_t factor_count() const noexcept { return factors_.size(); }
  [[nodiscard]] const Factor& factor(std::size_t i) const { return factors_.at(i); }
  [[nodiscard]] const std::vector<Factor>& factors() const noexcept { return factors_; }

  /// Total number of level combinations (product of level counts).
  [[nodiscard]] std::size_t configuration_count() const noexcept;

  /// Decode a flat configuration index into per-factor level indices
  /// (mixed-radix, factor 0 fastest).
  [[nodiscard]] std::vector<int> decode(std::size_t flat_index) const;

  /// Inverse of decode().
  [[nodiscard]] std::size_t encode(std::span<const int> levels) const;

 private:
  std::vector<Factor> factors_;
};

/// All configurations of the space, as level-index vectors.
[[nodiscard]] std::vector<std::vector<int>> full_factorial(const FactorSpace& space);

/// A two-level design in coded units: runs x factors matrix of -1/+1.
struct TwoLevelDesign {
  std::vector<std::string> factor_names;
  std::vector<std::vector<int>> runs;  // runs[r][f] in {-1, +1}

  [[nodiscard]] std::size_t run_count() const noexcept { return runs.size(); }
  [[nodiscard]] std::size_t factor_count() const noexcept { return factor_names.size(); }
};

/// Full 2^k design in standard (Yates) order.
[[nodiscard]] TwoLevelDesign full_factorial_2k(std::vector<std::string> factor_names);

/// A generator for a fractional design: `factor = word`, where word is a
/// product of base factors written as capital letters, e.g. {"D", "ABC"}.
struct Generator {
  std::string factor;  // the generated (added) factor
  std::string word;    // product of base factors, e.g. "ABC"
};

/// 2^(k-p) fractional factorial: base factors are assigned letters
/// A, B, C, ... in order; each generator adds one factor whose column is
/// the product of the named base columns.
[[nodiscard]] TwoLevelDesign fractional_factorial(
    std::vector<std::string> base_factor_names, std::span<const Generator> generators);

/// The defining relation and alias structure of a fractional design.
struct AliasStructure {
  /// Words of the defining relation (excluding I), as sorted letter strings.
  std::vector<std::string> defining_relation;
  /// resolution = length of the shortest defining word (0 if full design).
  int resolution = 0;
  /// aliases("A") -> {"BCD", ...}: effects confounded with "A".
  [[nodiscard]] std::vector<std::string> aliases_of(const std::string& word) const;

  std::vector<std::uint32_t> defining_masks;  // internal bitmask form
  std::size_t total_factors = 0;
};
[[nodiscard]] AliasStructure alias_structure(std::size_t base_factors,
                                             std::span<const Generator> generators);

/// Plackett-Burman screening design with the smallest available run count
/// N in {4, 8, 12, 16, 20, 24, 32} such that N > factor count. Columns are
/// mutually orthogonal; main effects are estimable in N runs.
[[nodiscard]] TwoLevelDesign plackett_burman(std::vector<std::string> factor_names);

/// Estimated effect of a word (e.g. "A", "BC") from a 2-level design and
/// its responses: 2/N * sum(sign * y).
[[nodiscard]] double estimate_effect(const TwoLevelDesign& design,
                                     std::span<const double> responses,
                                     const std::string& word);

/// All main effects, in factor order.
[[nodiscard]] std::vector<double> main_effects(const TwoLevelDesign& design,
                                               std::span<const double> responses);

}  // namespace divsec::stats
