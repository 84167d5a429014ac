// measurement.h — the batched parallel measurement engine.
//
// The paper's "DoE & Measurements" step is a grid of independent
// stochastic jobs: every (cell, replication) pair can run on its own
// core. MeasurementEngine flattens a ScenarioSweepPlan — a list of
// attack::Scenario cells, each with its own seed block — into that job
// list, evaluates it on a sim::Executor, and reassembles per-cell
// IndicatorSummary values in deterministic order. A DoE grid over a
// SystemDescription is a plan of instantiated configurations; generated
// fleets from the scenario:: layer are plans of their arms. Either
// engine (options.engine) runs any plan.
//
// Determinism contract: job (cell c, replication r) draws every random
// number from stats::Rng(plan.cells[c].seed, r). Results are therefore
// bit-identical for any thread count (including the serial path) and
// independent of job scheduling; only wall-clock time changes. Cell
// contexts (campaign tables, staged SAN models) are built lazily,
// one scheduling round of superblock tasks at a time, shared read-only by
// that cell's jobs and dropped once the ascending task order has moved
// past the cell — a 10^4-cell sweep holds O(round) contexts, not 10^4.
// A context holds its cell's campaign tables, not a copy of the cell's
// scenario. Cells whose topologies are copies of one value (one
// net::Topology::identity(), as the arms of scenario::make_preset_arms
// are) under the same firewall verdicts share one net::ReachabilityIndex,
// looked up on the calling thread before a round's parallel context
// builds; separately built equal topologies get one each. Construction
// consumes no randomness, so laziness and sharing leave every bit of the
// results unchanged (the obs:: registry exposes the counters as
// core.context.built / peak_live / reach_builds).
//
// Aggregation is streaming, block-sharded, and two-level: each cell's
// replication range splits into fixed-size superblocks
// (options.superblock) of fixed-size blocks (options.replication_block)
// — both part of the determinism contract, never derived from thread or
// shard counts. Blocks fold into per-block IndicatorAccumulator partials
// merged in ascending order into superblock partials
// (sim::reduce_groups), and superblock partials merge in ascending order
// into the cell result (sim::reduce_task_partials). The superblock
// partial is the distributable unit: measure_scenario_tasks computes any
// explicit task list — a contiguous shard range, one shard of a
// cost-weighted plan, or an adaptive run's recorded prefix — so a sweep
// can run as K OS processes (tools/divsec_sweep + dist::merge_shards)
// and reduce bit-identically to the in-process run. In process, the
// (task, block) items of a scheduling round feed one shared work queue,
// so skewed per-cell costs cannot idle the pool and a round with fewer
// tasks than threads still spreads over all of them. Memory is
// O(cells + threads × block); a CellVisitor additionally materializes
// each cell's samples (folded through the same reduction, so the
// summaries do not change).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/indicator_accumulator.h"
#include "core/indicators.h"

namespace divsec::sim {
class ShardPlan;
}

namespace divsec::core {

/// One plan cell: a concrete system (an instantiated configuration, or a
/// scenario generated by scenario::make_preset_arms or a ScenarioBuilder)
/// plus the master seed of its replication block (replication r uses RNG
/// stream (seed, r)). Cells that should share a reachability index hold
/// copies of one topology value.
struct ScenarioCell {
  attack::Scenario scenario;
  std::uint64_t seed = 0;
};

/// The flattened unit of work handed to the executor: every cell runs
/// the same replication count with the options' engine.
struct ScenarioSweepPlan {
  std::vector<ScenarioCell> cells;

  [[nodiscard]] std::size_t cell_count() const noexcept { return cells.size(); }
};

/// One campaign replication as the measurement engine records it: the
/// kernel writes c(t) into s.ratio_counts at `curve_edges` directly (the
/// buffer is sized once, then reused), so a warm call allocates nothing.
/// The run's telemetry stays in the calling thread's tallies until
/// attack::CampaignSimulator::flush_telemetry().
void campaign_sample(const attack::CampaignSimulator& sim, double horizon,
                     std::span<const double> curve_edges, stats::Rng rng,
                     IndicatorSample& s);

/// What an adaptive sweep actually spent, per cell — the reproducibility
/// record: replaying the achieved counts (dist layer: SweepMeta::achieved)
/// reproduces the summaries bit-identically with any thread or shard
/// count; the round log and the measured seconds are wall-clock
/// bookkeeping.
struct AdaptiveReport {
  std::vector<std::uint64_t> achieved;     // replications folded, per cell
  std::vector<std::uint64_t> cell_rounds;  // termination round (1-based)
  std::vector<IndicatorAccumulator> accumulators;  // folded result, per cell
  std::vector<double> cell_seconds;  // measured fold seconds, per cell
  std::vector<RoundLog> rounds;      // one per round
  std::size_t total_rounds = 0;
  std::uint64_t total_replications = 0;
};

class MeasurementEngine {
 public:
  /// The catalog and profile must outlive the engine. The executor used
  /// is options.executor, falling back to sim::Executor::shared().
  MeasurementEngine(const divers::VariantCatalog& catalog,
                    const attack::ThreatProfile& profile,
                    const MeasurementOptions& options);

  /// Per-cell observer invoked during reassembly with the cell's raw
  /// samples in replication order — the one way to see samples (e.g.
  /// MeasurementTable construction extracts its response vectors here);
  /// summaries never retain them.
  using CellVisitor =
      std::function<void(std::size_t cell, std::span<const IndicatorSample>)>;

  /// Measure every cell of the plan: (cell × replication) jobs run on the
  /// executor, job (cell, rep) drawing from Rng(cell.seed, rep), so the
  /// results are bit-identical for any thread count; summaries come back
  /// in cell order with samples folded in replication order.
  [[nodiscard]] std::vector<IndicatorSummary> measure_scenarios(
      const ScenarioSweepPlan& plan, const CellVisitor& visit = {}) const;

  /// Variance-driven adaptive sweep — the one adaptive round loop. Runs
  /// superblock rounds through the same task reduction as the
  /// fixed-budget path, tests every active cell's streaming accumulator
  /// against the CI half-width rule after each round, and retires
  /// converged cells; options.replications is the per-cell budget cap.
  /// Each cell's folded superblocks are an ascending prefix of its
  /// fixed-budget task list, so re-running exactly the recorded per-cell
  /// counts (report->achieved) through measure_scenario_tasks + the exact
  /// reducer reproduces every summary bit-identically for any thread or
  /// shard count. Streaming only. Throws std::invalid_argument when both
  /// precision criteria are disabled.
  [[nodiscard]] std::vector<IndicatorSummary> measure_scenarios_adaptive(
      const ScenarioSweepPlan& plan, const AdaptiveOptions& adaptive,
      AdaptiveReport* report = nullptr) const;

  /// The shard plan this engine's options induce over a sweep of `cells`
  /// cells: (cell × replication) space cut into superblock tasks
  /// (sim/shard_plan.h). The same plan governs the in-process reduction
  /// and any multi-process split of it.
  [[nodiscard]] sim::ShardPlan shard_plan(std::size_t cells) const;

  /// The distributed unit of work: compute the superblock partial
  /// accumulators of an explicit task list of `plan` under `shard` (which
  /// must be shard_plan(plan.cell_count())) — strictly ascending task
  /// indices, e.g. a contiguous shard range or one shard's slice of a
  /// cost-weighted LPT assignment (dist::cost_weighted_assignment).
  /// Contexts are built only for the cells the list touches, so a shard
  /// of a huge sweep never materializes the whole fleet. Partials come
  /// back in list order; since any exact-coverage mix of task lists
  /// merges through the same ascending (cell, superblock) fold
  /// (sim::reduce_task_partials, or dist::merge_shards across processes),
  /// the reduced results are bit-identical to measure_scenarios() no
  /// matter how the tasks were divided. task_seconds, when non-null,
  /// receives each task's measured fold time (the cost-model feed): the
  /// sum of its block times, whichever threads folded them.
  [[nodiscard]] std::vector<IndicatorAccumulator> measure_scenario_tasks(
      const ScenarioSweepPlan& plan, const sim::ShardPlan& shard,
      std::span<const std::uint64_t> tasks,
      std::vector<double>* task_seconds = nullptr) const;

  [[nodiscard]] const sim::Executor& executor() const noexcept { return *executor_; }

 private:
  class ContextFactory;  // measurement.cpp: lazy shared-context builder
  [[nodiscard]] std::vector<IndicatorSummary> run_cells(
      ContextFactory& factory, const CellVisitor& visit) const;
  [[nodiscard]] std::vector<IndicatorAccumulator> run_tasks(
      ContextFactory& factory, const sim::ShardPlan& shard,
      std::span<const std::uint64_t> tasks,
      std::vector<IndicatorSample>* samples,
      std::vector<double>* task_seconds) const;

  const divers::VariantCatalog* catalog_;
  const attack::ThreatProfile* profile_;
  MeasurementOptions options_;
  const sim::Executor* executor_;
};

}  // namespace divsec::core
