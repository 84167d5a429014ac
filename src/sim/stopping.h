// stopping.h — the shared sequential stopping rule.
//
// One place for the Law & Kelton CI half-width criterion and its
// min/max bounds, so the adaptive sweep's round loop
// (core::MeasurementEngine::measure_scenarios_adaptive, which
// dist::run_adaptive drives) and every check of its verdicts apply
// bit-for-bit the same rule to the same streaming moments.
//
// Two criteria, either of which stops the run once the minimum is met:
//   relative: half-width <= relative_precision * |mean|
//   absolute: half-width <= absolute_precision
// The relative criterion alone never fires for near-zero-mean indicators
// (e.g. an all-censored TTA cell has mean event-count 0), which is why
// the absolute floor exists; a criterion set to 0 is disabled.
#pragma once

#include <cmath>
#include <cstddef>

#include "stats/descriptive.h"

namespace divsec::sim {

/// Knobs of the sequential procedure; core::resolve_adaptive_schedule
/// fills them from the adaptive sweep's options.
struct StoppingRule {
  std::size_t min_replications = 10;
  std::size_t max_replications = 10000;
  double confidence_level = 0.95;
  /// Stop when CI half-width <= relative_precision * |mean| (or when the
  /// absolute target is met, whichever first; 0 disables a criterion).
  double relative_precision = 0.05;
  double absolute_precision = 0.0;
};

/// True when the streaming moments meet either precision criterion.
/// Ignores the min/max bounds (should_stop applies them); false below
/// two samples because no confidence interval exists yet. A zero-variance sequence
/// has half-width 0 and satisfies any enabled criterion immediately.
[[nodiscard]] inline bool precision_reached(const stats::OnlineStats& stats,
                                            const StoppingRule& rule) {
  if (stats.count() < 2) return false;
  const double hw =
      stats::mean_confidence_interval(stats, rule.confidence_level).half_width();
  const bool rel_ok = rule.relative_precision > 0.0 &&
                      hw <= rule.relative_precision * std::fabs(stats.mean());
  const bool abs_ok =
      rule.absolute_precision > 0.0 && hw <= rule.absolute_precision;
  return rel_ok || abs_ok;
}

/// The full rule with its bounds, over `count` observations whose
/// precision criterion (precision_reached, or a conjunction of it over
/// several indicators) gave `precision`: always stop at
/// max_replications, never below min_replications, otherwise stop on
/// precision.
[[nodiscard]] inline bool should_stop(std::size_t count, bool precision,
                                      const StoppingRule& rule) noexcept {
  if (count >= rule.max_replications) return true;
  return count >= rule.min_replications && precision;
}

}  // namespace divsec::sim
