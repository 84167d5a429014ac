// indicator_accumulator.h — streaming per-cell aggregation of indicator
// samples.
//
// One accumulator holds everything an IndicatorSummary reports — Welford
// moments, censor counts, success count, the censoring-aware
// product-limit / t-digest state for TTA and TTSF, and the binned
// compromised-ratio curve — in O(survival bins + sketch) memory, so a
// measurement sweep can reduce its (cell × replication) jobs without
// ever materializing the sample matrix. merge() combines
// block partials; the engine merges them in ascending block order
// (sim::reduce_groups), which keeps every summary bit-identical for any
// DIVSEC_THREADS.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/indicators.h"
#include "core/ratio_curve.h"
#include "sim/stopping.h"
#include "stats/survival.h"

namespace divsec::core {

class IndicatorAccumulator {
 public:
  /// The complete aggregation state, exposed for the distributed-sweep
  /// serialization layer (dist/state_codec): a shard process exports its
  /// partials with state(), the merge process restores them with
  /// from_state() and merges exactly as the in-process reduction would
  /// have. from_state(state()) is an exact round-trip — every subsequent
  /// merge/summarize is bit-identical to the original's.
  struct State {
    double horizon = 0.0;
    std::size_t n = 0;
    std::size_t successes = 0;
    stats::CensoredTimeAccumulator::State tta;
    stats::CensoredTimeAccumulator::State ttsf;
    stats::OnlineStats::State final_ratio;
    RatioCurveAccumulator::State curve;
  };

  IndicatorAccumulator() = default;  // mergeable empty state
  IndicatorAccumulator(double horizon_hours, std::size_t survival_bins);

  [[nodiscard]] State state() const;
  /// Restores from exported state; constituent validation applies
  /// (std::invalid_argument on corrupt state).
  [[nodiscard]] static IndicatorAccumulator from_state(const State& s);

  void add(const IndicatorSample& sample);
  void merge(const IndicatorAccumulator& other);
  /// As merge(const&), but an empty accumulator adopts `other` by move.
  void merge(IndicatorAccumulator&& other);

  /// Aggregate view; `samples` is left empty (retention is the caller's
  /// concern, not the accumulator's).
  [[nodiscard]] IndicatorSummary summarize() const;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }

  /// The adaptive sweep's per-cell stopping test: true when every
  /// indicator's streaming moments meet the rule's precision criteria
  /// (sim::precision_reached) — the censored-at-horizon TTA and TTSF
  /// moments with the absolute floor scaled by the horizon
  /// (rule.absolute_precision * horizon hours), and the final compromised
  /// ratio with the floor applied as-is. The rule's min/max bounds are
  /// the round driver's concern, not this predicate's.
  [[nodiscard]] bool precision_reached(const sim::StoppingRule& rule) const;

 private:
  double horizon_ = 0.0;
  std::size_t n_ = 0;
  std::size_t successes_ = 0;
  stats::CensoredTimeAccumulator tta_;
  stats::CensoredTimeAccumulator ttsf_;
  stats::OnlineStats final_ratio_;
  RatioCurveAccumulator curve_;
};

/// The one step that turns a sweep's per-cell accumulators into the
/// summaries it reports: each cell's summarize(), with replications set
/// to the cell's budget — achieved[c] when the per-cell counts are given
/// (an adaptive sweep), else `replications` for every cell — and the
/// sweep's horizon. The engine's fixed and adaptive paths and the
/// distributed merge all report through it, so a merged CSV cannot drift
/// from the in-process one.
[[nodiscard]] std::vector<IndicatorSummary> summarize_cells(
    std::span<const IndicatorAccumulator> acc,
    std::span<const std::uint64_t> achieved, std::size_t replications,
    double horizon_hours);

}  // namespace divsec::core
