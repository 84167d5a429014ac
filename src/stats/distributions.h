// distributions.h — value-semantic probability distributions.
//
// Distribution is a small variant-backed value type with three kinds:
// Deterministic (the default point mass), Exponential (SAN activity firing
// delays and attack stage durations) and Normal (SCADA sensor noise).
// Sampling is implemented in-house (inverse transform / polar method) so
// results are bit-stable across standard libraries.
#pragma once

#include <string>
#include <variant>

#include "stats/rng.h"

namespace divsec::stats {

/// Point mass at `value`. value >= 0 is not required (noise offsets may be
/// negative), but activity delays validate non-negativity at model build.
struct Deterministic {
  double value = 0.0;
};

/// Exponential with rate lambda (> 0); mean 1/lambda.
struct Exponential {
  double rate = 1.0;
};

/// Normal(mean, sd). sd >= 0.
struct Normal {
  double mean = 0.0;
  double sd = 1.0;
};

class Distribution {
 public:
  using Variant = std::variant<Deterministic, Exponential, Normal>;

  Distribution() : v_(Deterministic{0.0}) {}
  Distribution(Deterministic d) : v_(d) { validate(); }  // NOLINT(google-explicit-constructor)
  Distribution(Exponential d) : v_(d) { validate(); }    // NOLINT
  Distribution(Normal d) : v_(d) { validate(); }         // NOLINT

  /// Draw one sample using `rng`.
  [[nodiscard]] double sample(Rng& rng) const;

  /// Analytic mean of the distribution.
  [[nodiscard]] double mean() const;

  /// Analytic variance of the distribution.
  [[nodiscard]] double variance() const;

  /// Human-readable form, e.g. "Exponential(rate=2)".
  [[nodiscard]] std::string to_string() const;

 private:
  void validate() const;
  Variant v_;
};

/// Sample a standard normal via the Marsaglia polar method (no trig, and
/// identical output on every platform). Consumes a variable number of
/// uniforms.
[[nodiscard]] double sample_standard_normal(Rng& rng) noexcept;

}  // namespace divsec::stats
