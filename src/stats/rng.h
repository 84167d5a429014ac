// rng.h — deterministic pseudo-random number generation for divsec.
//
// All stochastic code in the library draws from Rng, a xoshiro256**
// generator seeded through SplitMix64. Independent replications and
// independent model substreams are derived with Rng::stream(), which
// hashes (seed, stream-id) so that streams are statistically independent
// and reproducible across platforms (we never rely on libstdc++
// distribution implementations for cross-platform stability).
#pragma once

#include <cstdint>
#include <limits>

namespace divsec::stats {

/// SplitMix64 step; used for seeding and stream derivation.
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators", OOPSLA 2014.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna). Satisfies
/// std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seed the generator. Two Rng objects with the same (seed, stream)
  /// produce identical sequences.
  explicit Rng(std::uint64_t seed = 0xD1755E5EC0FEE5ULL,
               std::uint64_t stream = 0) noexcept {
    reseed(seed, stream);
  }

  void reseed(std::uint64_t seed, std::uint64_t stream = 0) noexcept {
    // Mix the stream id into the seed domain before expanding the state;
    // the golden-ratio multiplier decorrelates adjacent stream ids.
    std::uint64_t sm = seed ^ (stream * 0x9E3779B97F4A7C15ULL + 0x853C49E6748FEA9BULL);
    for (auto& w : s_) w = splitmix64(sm);
  }

  /// Derive an independent child generator. Deterministic in (this
  /// generator's seed material, id): derivation does not consume state.
  [[nodiscard]] Rng stream(std::uint64_t id) const noexcept {
    std::uint64_t sm = s_[0] ^ (s_[3] + 0x165667B19E3779F9ULL * (id + 1));
    Rng child(Unseeded{});
    for (auto& w : child.s_) w = splitmix64(sm);
    return child;
  }

  [[nodiscard]] result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Uniform double in [0, 1) with 53 bits of entropy.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept {
    // Lemire's nearly-divisionless bounded generation.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  /// For stream(), which overwrites the whole state: skips the default
  /// seed expansion (half the cost of a campaign run's eight lanes).
  struct Unseeded {};
  explicit Rng(Unseeded) noexcept {}

  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4]{};
};

}  // namespace divsec::stats
