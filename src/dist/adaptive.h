// adaptive.h — the adaptive sweep as a merged, replayable sweep result.
//
// `divsec_sweep adapt` runs here: run_adaptive expands the spec into the
// engine's one adaptive round loop
// (core::MeasurementEngine::measure_scenarios_adaptive), which spends
// replications only where variance demands them — each round runs the
// still-active cells' next superblocks, folds them in ascending (cell,
// superblock) order, applies the shared stopping rule (sim/stopping.h
// via IndicatorAccumulator::precision_reached), and retires converged
// cells — then packages the loop's report as the same MergeResult that
// merge_shards returns: the per-cell achieved counts, summaries, measured
// cost and round log.
//
// Reproducibility contract: the recorded per-cell achieved counts
// (SweepMeta::achieved) — not the round schedule — are the contract.
// Every cell's folded superblocks form an ascending prefix of its task
// list, so replaying exactly those counts (divsec_sweep run --replay)
// through any thread count and any shard cut reproduces the merged CSV
// byte for byte. The round log and termination rounds are provenance for
// `inspect`, never identity.
#pragma once

#include "dist/sweep.h"

namespace divsec::dist {

/// Run the adaptive sweep and return it as a merged result: meta.achieved
/// records where every cell stopped (merged = true), cost is the measured
/// cost of the whole run, and rounds / cell_rounds carry the round log and
/// each cell's termination round. merged_state writes it as the state file
/// `inspect` reads and `run --replay` replays. spec.achieved must be empty
/// (the run records it); spec.replications is the per-cell budget cap.
/// Throws std::invalid_argument when both precision criteria are
/// disabled. The executor threads the engine (null =
/// sim::Executor::shared()); results are bit-identical for any thread
/// count.
[[nodiscard]] MergeResult run_adaptive(const SweepSpec& spec,
                                       const core::AdaptiveOptions& options,
                                       const sim::Executor* executor = nullptr);

}  // namespace divsec::dist
