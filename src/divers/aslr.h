// aslr.h — address-space layout randomization as a probabilistic defense.
//
// ASLR contributes "runtime diversity": even identical binaries load at
// different bases. We model the canonical abstraction: an exploit that
// must guess the load base succeeds per attempt with probability 2^-bits
// (bits = entropy). The model feeds the exploit-success computation in
// variants.h and the E11 ablation bench.
#pragma once

#include <cstdint>

namespace divsec::divers {

class AslrModel {
 public:
  /// entropy_bits = 0 disables ASLR (every guess succeeds).
  explicit AslrModel(int entropy_bits);

  [[nodiscard]] int entropy_bits() const noexcept { return bits_; }

  /// Probability a single hardcoded-address attempt lands correctly.
  [[nodiscard]] double per_attempt_success() const noexcept;

  /// Probability at least one of `attempts` independent guesses succeeds
  /// (fresh randomization per attempt, e.g. a forking service).
  [[nodiscard]] double success_within(std::uint64_t attempts) const noexcept;

  /// Expected number of attempts until success (geometric mean).
  [[nodiscard]] double expected_attempts() const noexcept;

 private:
  int bits_;
};

}  // namespace divsec::divers
