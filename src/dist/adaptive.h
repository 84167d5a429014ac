// adaptive.h — the adaptive sweep as a merged, replayable sweep result.
//
// `divsec_sweep adapt` runs here: run_adaptive expands the spec into the
// engine's one adaptive round loop
// (core::MeasurementEngine::measure_scenarios_adaptive), which spends
// replications only where variance demands them — each round runs the
// still-active cells' next superblocks, folds them in ascending (cell,
// superblock) order, applies the shared stopping rule (sim/stopping.h
// via IndicatorAccumulator::precision_reached), and retires converged
// cells — then packages the loop's report as a merged result: the
// per-cell achieved counts, summaries, measured cost and round log.
//
// Reproducibility contract: the recorded per-cell achieved counts
// (SweepMeta::achieved) — not the round schedule — are the contract.
// Every cell's folded superblocks form an ascending prefix of its task
// list, so replaying exactly those counts (divsec_sweep run --replay)
// through any thread count and any shard cut reproduces the merged CSV
// byte for byte. The round log and termination rounds are provenance for
// `inspect`, never identity.
#pragma once

#include <cstdint>
#include <vector>

#include "dist/sweep.h"

namespace divsec::dist {

/// What the adaptive loop produced: the merged result (meta.achieved
/// records where every cell stopped) plus the round-by-round provenance.
struct AdaptiveResult {
  SweepMeta meta;  // merged = true, achieved filled
  std::vector<core::IndicatorAccumulator> accumulators;  // one per cell
  std::vector<core::IndicatorSummary> summaries;         // one per cell
  CostModel cost;                         // measured cost of the whole run
  std::vector<core::RoundLog> rounds;     // one per round
  std::vector<std::uint64_t> cell_rounds; // termination round per cell
  std::uint64_t total_replications = 0;   // sum of achieved
  std::uint64_t budget_replications = 0;  // cells × spec.replications
};

/// Run the adaptive sweep. spec.achieved must be empty (the run records
/// it); spec.replications is the per-cell budget cap. Throws
/// std::invalid_argument when both precision criteria are disabled. The
/// executor threads the engine (null = sim::Executor::shared()); results
/// are bit-identical for any thread count.
[[nodiscard]] AdaptiveResult run_adaptive(
    const SweepSpec& spec, const core::AdaptiveOptions& options,
    const sim::Executor* executor = nullptr);

/// The adaptive result as a writable merged state (meta.achieved + round
/// log + termination rounds carried) — what `inspect` reads and `run
/// --replay` replays.
[[nodiscard]] ShardState adaptive_state(const AdaptiveResult& result);

}  // namespace divsec::dist
