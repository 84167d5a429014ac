// indicators.h — the paper's security indicators and their estimators.
//
// Section II of the paper defines three indicators:
//  (i)  Time-To-Attack (TTA): "the time between the beginning and
//       completion of an attack";
//  (ii) Time-To-Security-Failure (TTSF, after Madan et al. DSN'02): "the
//       time between the beginning of the attack and the perceived attack
//       manifestation";
//  (iii) compromised ratio: "the number of compromised components at time
//       t with respect to the total number of components".
//
// Two measurement engines estimate them for each (scenario, seed) cell
// of a core::ScenarioSweepPlan under one threat profile (a configuration
// becomes a cell through SystemDescription::instantiate):
//  * kCampaign — the node-level network campaign simulator (slower,
//    produces all three indicators including c(t) curves);
//  * kStagedSan — the staged-attack SAN abstraction (fast; TTA/TTSF as
//    first-passage times; ratio degenerates to success indicator).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "attack/san_model.h"
#include "attack/stages.h"
#include "core/configuration.h"
#include "sim/stopping.h"
#include "stats/descriptive.h"
#include "stats/survival.h"

namespace divsec::sim {
class Executor;
}

namespace divsec::core {

enum class Engine { kCampaign, kStagedSan };

/// Per-replication raw indicator values. Censored times are recorded at
/// the horizon t_max (standard fixed-censoring convention; the censored
/// flags preserve the information).
struct IndicatorSample {
  double tta = 0.0;
  bool tta_censored = true;
  double ttsf = 0.0;
  bool ttsf_censored = true;
  bool attack_succeeded = false;
  double final_ratio = 0.0;  // campaign engine only
  /// Campaign engine: compromised-component counts sampled at the upper
  /// edges of the ratio-curve bin grid (survival_bins equal bins over
  /// [0, horizon]), in units of 1/ratio_scale where ratio_scale is the
  /// component count of the simulated system. Integer counts so the
  /// curve accumulator's merge stays exact. Empty for the SAN engine,
  /// which has no c(t) trajectory.
  std::vector<std::uint32_t> ratio_counts;
  std::uint64_t ratio_scale = 0;
};

/// Replication-aggregated indicator estimates for one configuration.
struct IndicatorSummary {
  std::size_t replications = 0;
  double horizon_hours = 0.0;

  stats::OnlineStats tta;   // censored values included at horizon
  std::size_t tta_censored = 0;
  stats::OnlineStats ttsf;
  std::size_t ttsf_censored = 0;
  stats::OnlineStats final_ratio;
  std::size_t successes = 0;

  /// Censoring-aware estimates of the event times (streaming
  /// product-limit restricted mean / median + t-digest quantiles).
  /// `tta.mean()` / `ttsf.mean()` silently average censored-at-horizon
  /// values — a downward-biased estimate under censoring; these are the
  /// unbiased companions to report next to them.
  stats::CensoredTimeSummary tta_event;
  stats::CensoredTimeSummary ttsf_event;

  /// Mean compromised-ratio curve c(t) at the upper edges of
  /// survival_bins equal bins over [0, horizon] (the anchor c(0) = 0 is
  /// implicit). Streamed by the per-cell curve accumulator — every sweep
  /// cell gets its curve for free, no re-simulation. Empty for the SAN
  /// engine. Query at arbitrary t with core::curve_value_at.
  std::vector<double> ratio_curve;

  [[nodiscard]] double attack_success_probability() const noexcept {
    return replications ? static_cast<double>(successes) /
                              static_cast<double>(replications)
                        : 0.0;
  }
  [[nodiscard]] double tta_censor_fraction() const noexcept {
    return replications ? static_cast<double>(tta_censored) /
                              static_cast<double>(replications)
                        : 0.0;
  }
  [[nodiscard]] double ttsf_censor_fraction() const noexcept {
    return replications ? static_cast<double>(ttsf_censored) /
                              static_cast<double>(replications)
                        : 0.0;
  }
};

/// Variance-driven adaptive replication allocation (the sweep-level
/// Law & Kelton procedure; see MeasurementEngine::measure_scenarios_adaptive,
/// which dist::run_adaptive packages for the CLI). The sweep runs in
/// superblock rounds: after each round every active cell's streaming
/// accumulator is tested against the CI half-width rule (sim/stopping.h)
/// and converged cells retire from the task queue. Decisions land on
/// superblock boundaries — the superblock stays the distributable,
/// replayable unit — so the recorded per-cell achieved counts are always
/// whole numbers of superblocks (or the cell's final short superblock).
struct AdaptiveOptions {
  /// Per-indicator CI half-width targets at confidence_level, applied to
  /// the censored-at-horizon TTA/TTSF moments and the final compromised
  /// ratio; a cell retires when all three indicators meet either
  /// criterion (0 disables a criterion). The absolute floor is in ratio
  /// units for the compromised ratio and is scaled by the horizon for
  /// the time indicators (absolute_precision * horizon hours) so one
  /// knob covers all-censored cells whose relative rule never fires.
  double relative_precision = 0.05;
  double absolute_precision = 0.0;
  double confidence_level = 0.95;
  /// Replications before the rule may fire. 0 resolves to one superblock.
  std::size_t min_replications = 0;
  /// Hard cap per cell; 0 resolves to options.replications (and is
  /// always clamped to it — the fixed budget provisions the task plan).
  std::size_t max_replications = 0;
  /// Replications added per round to each still-active cell; 0 resolves
  /// to one superblock, other values round up to superblock multiples.
  std::size_t round_replications = 0;
};

/// The whole-superblock schedule an AdaptiveOptions resolves to against a
/// concrete budget and superblock size: what the adaptive loop
/// (MeasurementEngine::measure_scenarios_adaptive) retires cells by, and
/// what a caller judging its verdicts must resolve to agree with it.
struct AdaptiveSchedule {
  sim::StoppingRule rule;          // min/max resolved against the budget
  std::size_t first_superblocks = 1;  // superblocks per cell in round 1
  std::size_t round_superblocks = 1;  // superblocks per later round
};

[[nodiscard]] inline AdaptiveSchedule resolve_adaptive_schedule(
    const AdaptiveOptions& adaptive, std::size_t replications,
    std::size_t superblock) {
  AdaptiveSchedule s;
  s.rule.confidence_level = adaptive.confidence_level;
  s.rule.relative_precision = adaptive.relative_precision;
  s.rule.absolute_precision = adaptive.absolute_precision;
  const std::size_t min_reps =
      adaptive.min_replications
          ? std::min(adaptive.min_replications, replications)
          : std::min(superblock, replications);
  const std::size_t max_reps =
      adaptive.max_replications
          ? std::min(adaptive.max_replications, replications)
          : replications;
  s.rule.min_replications = min_reps;
  s.rule.max_replications = std::max(max_reps, min_reps);
  const std::size_t round_reps =
      adaptive.round_replications ? adaptive.round_replications : superblock;
  s.first_superblocks =
      std::max<std::size_t>(1, (min_reps + superblock - 1) / superblock);
  s.round_superblocks =
      std::max<std::size_t>(1, (round_reps + superblock - 1) / superblock);
  return s;
}

/// One round of an adaptive sweep: wall-clock bookkeeping the round loop
/// records and a merged adaptive state carries (dist::ShardState::rounds)
/// so `divsec_sweep inspect` can show where the budget went. Provenance
/// only — never part of the identity; the reproducibility contract is the
/// per-cell achieved counts.
struct RoundLog {
  std::uint64_t round = 0;         // 1-based
  std::uint64_t active_cells = 0;  // cells still unconverged this round
  std::uint64_t tasks = 0;         // superblock tasks run this round
  std::uint64_t replications = 0;  // replications folded this round
  double wall_ms = 0.0;            // the round's wall time
  double merge_ms = 0.0;           // the round's fold time
};

struct MeasurementOptions {
  Engine engine = Engine::kCampaign;
  std::size_t replications = 100;
  std::uint64_t seed = 2013;  // DSN 2013
  attack::CampaignOptions campaign{};
  attack::DetectionModel detection{};
  /// Replications per aggregation block of the streaming backend. The
  /// block decomposition is part of the determinism contract (partial
  /// accumulators merge in ascending block order), so it is a fixed
  /// number — never derived from the thread count. 0 resolves to
  /// sim::kDefaultReductionBlock.
  std::size_t replication_block = 0;
  /// Replications per superblock — the distributable unit of the
  /// two-level streaming reduction (sim/shard_plan.h). Superblock
  /// partials merge in ascending order into each cell's result, so a
  /// sweep can be split across OS processes at superblock boundaries and
  /// merged back bit-identically. Like the block, it is part of the
  /// determinism contract: a fixed number, never derived from thread or
  /// shard counts; must be a multiple of the resolved block. 0 resolves
  /// to sim::kDefaultSuperblockReps (block-aligned).
  std::size_t superblock = 0;
  /// Bins of the streaming product-limit (survival) estimators over
  /// [0, horizon]; bounds the bias of the censor-aware restricted mean
  /// and median to one bin width.
  std::size_t survival_bins = stats::kDefaultSurvivalBins;
  /// Executor for (cell × replication) jobs; null falls back to
  /// sim::Executor::shared() (DIVSEC_THREADS-sized). Non-owning.
  /// Note the deliberate asymmetry with the SAN estimators
  /// (san/analysis.h), where a null executor means strictly serial:
  /// measurement is the top-level hot path and parallelizes by default;
  /// set DIVSEC_THREADS=1 or pass a 1-thread executor to force the
  /// serial path. Results are bit-identical either
  /// way, and a caller already running inside an executor job reuses its
  /// thread inline (no nested parallelism or deadlock).
  const sim::Executor* executor = nullptr;
};

/// Step-1 bridge: derive the staged attack model (per-stage success
/// probabilities and rates) for a concrete scenario — an instantiated
/// configuration or any plan cell. This is the "Attack Modeling" output
/// of the pipeline: the deployed variants determine the probabilities,
/// exactly as the paper prescribes. Validates the scenario against
/// `catalog`, the profile and the detection model.
[[nodiscard]] attack::StagedAttackModel derive_staged_model(
    const divers::VariantCatalog& catalog, const attack::Scenario& sc,
    const attack::ThreatProfile& profile, const attack::DetectionModel& detection);

/// Measure all indicators for one configuration: a one-cell plan of its
/// instantiated scenario, seeded with options.seed.
[[nodiscard]] IndicatorSummary measure_indicators(
    const SystemDescription& description, const Configuration& config,
    const attack::ThreatProfile& profile, const MeasurementOptions& options);

/// Statistical comparison of two configurations' indicator summaries:
/// is B actually safer than A, or is the difference noise?
struct IndicatorComparison {
  /// Two-proportion z-test on attack success counts (A vs B).
  stats::ProportionTest success;
  /// Welch t-tests on the (censored-at-horizon) indicator values.
  stats::WelchTest tta;
  stats::WelchTest ttsf;
  /// Convenience verdict at the given alpha: B has significantly lower
  /// attack success probability than A.
  [[nodiscard]] bool b_is_significantly_safer(double alpha = 0.05) const noexcept {
    return success.difference > 0.0 && success.p_value < alpha;
  }
};
[[nodiscard]] IndicatorComparison compare_indicators(const IndicatorSummary& a,
                                                     const IndicatorSummary& b);

/// Mean compromised-ratio curve over replications, sampled at the given
/// time grid (campaign engine only). Measures the same one-cell plan as
/// measure_indicators and interpolates its streamed binned curve, so the
/// curve shares the measurement's replications and determinism.
[[nodiscard]] std::vector<double> mean_compromised_ratio_curve(
    const SystemDescription& description, const Configuration& config,
    const attack::ThreatProfile& profile, const MeasurementOptions& options,
    const std::vector<double>& time_grid_hours);

}  // namespace divsec::core
