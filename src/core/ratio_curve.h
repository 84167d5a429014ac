// ratio_curve.h — streaming accumulator for the paper's compromised-ratio
// curve c(t).
//
// Indicator (iii) of the paper is "the number of compromised components
// at time t with respect to the total number of components". Each
// campaign replication yields a step curve; the mean curve over
// replications used to require re-simulating a configuration with
// retained trajectories. This accumulator streams it instead: every
// replication is sampled at the upper edges of a fixed bin grid over
// [0, horizon] as *integer* compromised-component counts (ratio ×
// component count; the campaign kernel writes them at each compromise,
// attack::CampaignSimulator::run(rng, bins)), and per-bin count sums
// accumulate as uint64. The
// merge adds count sums — exact and order-independent, exactly like
// StreamingSurvival's bin merge — so the mean curve falls out of the
// standard blocked reduction bit-identically for any DIVSEC_THREADS or
// shard cut, with no retained samples and no re-simulation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace divsec::core {

/// Per-bin sums of compromised-component counts at bin upper edges.
/// `scale` is the component count the integer counts are measured
/// against (ratio = count / scale); it is adopted from the first add or
/// merge partner and must agree thereafter — one accumulator summarizes
/// one configuration, whose component count is fixed.
class RatioCurveAccumulator {
 public:
  /// The complete internal state, exposed for the distributed-sweep
  /// serialization layer. `sums` is empty for the default-constructed
  /// mergeable empty state; `scale` is 0 until the first observation.
  /// from_state(state()) restores the accumulator exactly.
  struct State {
    double horizon = 0.0;
    std::uint64_t scale = 0;
    std::uint64_t n = 0;
    std::vector<std::uint64_t> sums;
  };

  /// Mergeable empty state (adopts the first non-empty merge partner).
  RatioCurveAccumulator() = default;
  /// horizon > 0, bins >= 1 (std::invalid_argument otherwise).
  RatioCurveAccumulator(double horizon, std::size_t bins);

  [[nodiscard]] State state() const;
  /// Restores from exported state; validates shape (per-bin sums cannot
  /// exceed n × scale, counts require a scale) and throws
  /// std::invalid_argument on corrupt state.
  [[nodiscard]] static RatioCurveAccumulator from_state(const State& s);

  /// Record one replication's curve: compromised counts at each bin
  /// upper edge, in units of 1/scale. counts.size() must equal bins().
  void add(std::span<const std::uint32_t> counts, std::uint64_t scale);
  /// Requires identical (horizon, bins, scale) unless one side is empty.
  void merge(const RatioCurveAccumulator& other);

  [[nodiscard]] double horizon() const noexcept { return horizon_; }
  [[nodiscard]] std::size_t bins() const noexcept { return sums_.size(); }
  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t scale() const noexcept { return scale_; }
  [[nodiscard]] const std::vector<std::uint64_t>& sums() const noexcept {
    return sums_;
  }

  /// Mean ratio at each bin upper edge (size bins(); the implicit
  /// anchor c(0) = 0 is not stored). Empty when no curve was recorded.
  [[nodiscard]] std::vector<double> mean_curve() const;

 private:
  double horizon_ = 0.0;
  std::uint64_t scale_ = 0;
  std::uint64_t n_ = 0;
  std::vector<std::uint64_t> sums_;  // per bin upper edge
};

/// Upper edges of `bins` equal bins over [0, horizon]: edge k is
/// horizon × (k + 1) / bins — the grid RatioCurveAccumulator sums over.
[[nodiscard]] std::vector<double> curve_bin_edges(double horizon,
                                                  std::size_t bins);

/// Evaluate a binned mean curve (values at the upper edges of
/// curve.size() equal bins over [0, horizon]) at time t: linear
/// interpolation anchored at (0, 0), clamped to the last value past the
/// horizon. Preserves monotonicity of the bin values.
[[nodiscard]] double curve_value_at(std::span<const double> curve,
                                    double horizon, double t);

}  // namespace divsec::core
