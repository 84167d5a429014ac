// tdigest.h — the mergeable t-digest quantile sketch of Dunning & Ertl,
// "Computing Extremely Accurate Quantiles Using t-Digests" (2019).
//
// A t-digest summarizes a distribution as a short list of (mean, weight)
// centroids whose sizes are bounded by the k1 scale function: centroids
// near the median may grow large, centroids near the tails stay small,
// so tail quantiles keep high resolution at O(compression) memory. The
// property that matters here is that merge() does NOT accumulate bias
// the way the P² pooled-CDF merge it replaced did: merging concatenates
// centroid lists and re-compresses, so a deep merge tree (superblocks ×
// shards × adaptive rounds) ends up with the same kind of digest a
// single stream would have produced, and the measured error stays well
// under 1% where the P² merge drifted +4–23%.
//
// Determinism contract (what the distributed sweep relies on):
//  * the centroid list is the complete state — there is no hidden
//    unsorted buffer, so state()/from_state() round-trips exactly and
//    the restored sketch behaves bit-identically ever after;
//  * add(), merge() and compress() are deterministic functions of the
//    current state (compression is triggered purely by centroid count),
//    so a reduction that merges partials in a fixed ascending order
//    yields thread-count- and shard-cut-independent bytes;
//  * centroid weights are integer counts (std::uint64_t) — they merge
//    exactly and serialize as varints in the v4 state codec.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace divsec::stats {

class TDigest {
 public:
  /// One cluster of the sketch: `weight` observations with the given
  /// running mean.
  struct Centroid {
    double mean = 0.0;
    std::uint64_t weight = 0;
  };

  /// The complete internal state, exposed for the distributed-sweep
  /// serialization layer. `centroids` are sorted by non-decreasing mean;
  /// the observation count is the sum of the weights (not stored
  /// separately). from_state(state()) restores the sketch exactly —
  /// every subsequent add/merge/quantile is bit-identical to the
  /// original's.
  struct State {
    double compression = 100.0;
    double min = 0.0;
    double max = 0.0;
    std::vector<Centroid> centroids;
  };

  /// compression (δ) bounds the compressed centroid count; larger is
  /// more accurate and bigger. Throws std::invalid_argument unless
  /// finite and >= 10.
  explicit TDigest(double compression = 100.0);

  [[nodiscard]] State state() const;
  /// Restores from exported state; validates the invariants (compression
  /// >= 10, positive weights, finite non-decreasing means bracketed by
  /// [min, max]) and throws std::invalid_argument on corrupt state.
  [[nodiscard]] static TDigest from_state(const State& s);

  void add(double x);

  /// Combine another sketch with the same compression
  /// (std::invalid_argument otherwise; either side may be empty).
  /// Deterministic in (this state, other state) — merge order is the
  /// caller's contract, as with every reducer in this codebase.
  void merge(const TDigest& other);

  /// Estimate of the q-quantile, q in [0, 1] (std::invalid_argument
  /// otherwise); 0 when empty. Linear interpolation between centroid
  /// midpoints, anchored at the exact min/max.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::size_t count() const noexcept {
    return static_cast<std::size_t>(n_);
  }
  [[nodiscard]] double compression() const noexcept { return compression_; }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] std::size_t centroid_count() const noexcept {
    return centroids_.size();
  }

  /// Collapse the centroid list to its k1-bounded form. Called
  /// automatically when the list outgrows 2×compression; idempotent —
  /// compressing a compressed digest is a no-op (pinned by test).
  void compress();

 private:
  [[nodiscard]] double k_to_q(double k) const noexcept;
  [[nodiscard]] double q_to_k(double q) const noexcept;

  double compression_ = 100.0;
  std::uint64_t n_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::vector<Centroid> centroids_;  // sorted by non-decreasing mean
};

}  // namespace divsec::stats
