// sweep.h — distributed scenario sweeps: plan-by-name expansion, shard
// execution, and the exact cross-process reducer.
//
// A sweep is named, not shipped: a SweepSpec carries only (preset,
// policies, threat, seed, replication/aggregation parameters), and every
// shard process re-expands the identical ScenarioSweepPlan from the
// scenario registry — deterministic in the spec, so N processes agree on
// every cell and every RNG stream without exchanging topology bytes.
// Each shard computes the superblock-task partials its index owns under
// the ShardPlan (sim/shard_plan.h) and serializes them (state_codec.h);
// merge_shards validates identity fingerprints and exact task coverage,
// then folds partials in ascending (cell, superblock) order — the same
// sequence the in-process engine uses, so merged summaries are
// bit-identical to run_in_process() on the same spec. K = 1 is not a
// special case, and shards may even come from runs with different K as
// long as they cover every task exactly once.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/measurement.h"
#include "dist/cost_model.h"
#include "dist/state_codec.h"
#include "divers/variants.h"
#include "sim/shard_plan.h"

namespace divsec::dist {

/// What the operator chooses; everything else is derived. Defaults give
/// the three-arm policy sweep (monoculture control vs zone-stratified vs
/// random-per-node) the fleet experiments use.
struct SweepSpec {
  /// A scenario registry name: a fixed preset, enterprise{N}, or any
  /// family spec FamilySpec::parse accepts ("brownfield:nodes=512").
  /// make_meta canonicalizes the spelling before it enters the
  /// fingerprint.
  std::string preset = "enterprise256";
  std::vector<scenario::VariantPolicy> policies = {
      scenario::VariantPolicy::kMonoculture,
      scenario::VariantPolicy::kZoneStratified,
      scenario::VariantPolicy::kRandomPerNode,
  };
  /// A threat spec: a base profile name or a tuned
  /// "stuxnet:scan=2,channels=usb+http" form (attack::ThreatTuning).
  /// make_meta canonicalizes it (default parameters drop out).
  std::string threat = "stuxnet";
  std::uint64_t seed = 2013;
  std::size_t replications = 1000;
  std::size_t replication_block = 0;  // 0 = sim::kDefaultReductionBlock
  std::size_t superblock = 0;         // 0 = sim::kDefaultSuperblockReps
  std::size_t survival_bins = stats::kDefaultSurvivalBins;
  /// Unset = attack::CampaignOptions default; a set value must be
  /// finite and > 0 (make_meta rejects anything else).
  std::optional<double> horizon_hours;
  /// Per-cell achieved replication counts recorded by an adaptive run
  /// (SweepMeta::achieved): empty for fixed-budget sweeps. A non-empty
  /// list restricts the sweep's task space to each cell's prefix — the
  /// replay contract. Specs round-trip through make_meta/spec_from_meta.
  std::vector<std::uint64_t> achieved;
};

/// Resolve a spec into the authoritative meta block (defaults filled in,
/// cells = policies.size()). Throws std::invalid_argument for empty
/// policy lists, unknown threats, unknown presets, a set horizon that is
/// not finite and > 0, or misaligned block/superblock sizes.
[[nodiscard]] SweepMeta make_meta(const SweepSpec& spec);

/// Inverse of make_meta (resolved values stay explicit).
[[nodiscard]] SweepSpec spec_from_meta(const SweepMeta& meta);

/// Threat spec expansion: a base name ("stuxnet", "duqu", "flame") or a
/// tuned "base:k=v,..." spec (attack::threat_profile_from_spec);
/// std::invalid_argument otherwise.
[[nodiscard]] attack::ThreatProfile threat_profile(const std::string& name);

/// Deterministic plan re-expansion: cell c is arm c of
/// make_preset_arms(spec.preset, catalog, spec.seed, spec.policies) (the
/// topology is generated once and the cells share it) with a seed block
/// derived from spec.seed by iterated SplitMix64 — the (c+1)-th output.
/// The catalog must itself be VariantCatalog::standard(spec.seed) for two
/// processes to agree; sharded entry points construct it that way
/// internally.
[[nodiscard]] core::ScenarioSweepPlan expand_plan(
    const SweepSpec& spec, const divers::VariantCatalog& catalog);

/// One human-readable name per sweep cell (the policy names).
[[nodiscard]] std::vector<std::string> cell_names(const SweepSpec& spec);

/// The measurement options a spec induces. Executor null =
/// sim::Executor::shared().
[[nodiscard]] core::MeasurementOptions sweep_options(
    const SweepSpec& spec, const sim::Executor* executor = nullptr);

/// The superblock task plan a spec induces (what task ids in plan files
/// and shard states index into).
[[nodiscard]] sim::ShardPlan sweep_shard_plan(const SweepMeta& meta);

/// The superblock tasks the meta's recorded per-cell achieved counts
/// cover, in ascending order: cell c's first ceil(achieved[c] /
/// superblock) tasks. Fixed-budget metas (empty achieved) cover every
/// task of the plan. This is the exact-coverage set merge_shards
/// validates against and the task list an adaptive replay runs.
[[nodiscard]] std::vector<std::uint64_t> achieved_tasks(const SweepMeta& meta);

/// Compute shard `shard` of `shard_count` under the contiguous balanced
/// split of the sweep's task list — achieved_tasks(make_meta(spec)),
/// which is [0, task_count) for fixed budgets and each cell's recorded
/// prefix for an adaptive replay — cut by list position with
/// sim::contiguous_range: re-expand the plan, run the owned tasks, and
/// return the serialized-ready state (meta provenance filled in, wall_ms
/// and the per-cell cost model measured). The accumulator payload is a
/// pure function of (spec, shard, shard_count) — thread count and host
/// change only the wall/cost provenance, never the partial bytes.
[[nodiscard]] ShardState run_shard(const SweepSpec& spec, std::size_t shard,
                                   std::size_t shard_count,
                                   const sim::Executor* executor = nullptr);

/// Elastic variant: run an explicit (strictly ascending) task list —
/// one shard's slice of a cost-weighted plan. shard/shard_count are
/// provenance only; the payload depends on (spec, tasks) alone. The
/// merge accepts any mix of shard states whose lists cover the task
/// space exactly once.
[[nodiscard]] ShardState run_shard_tasks(const SweepSpec& spec,
                                         std::vector<std::uint64_t> tasks,
                                         std::size_t shard,
                                         std::size_t shard_count,
                                         const sim::Executor* executor = nullptr);

/// The single-process reference: the engine's own streaming path end to
/// end (measure_scenarios). merge_shards output must match this bit for
/// bit — the distributed-correctness contract.
[[nodiscard]] std::vector<core::IndicatorSummary> run_in_process(
    const SweepSpec& spec, const sim::Executor* executor = nullptr);

/// A merged sweep result: per-cell accumulators plus the summaries they
/// yield. merge_shards returns one (rounds and cell_rounds empty), and
/// so does run_adaptive (dist/adaptive.h), whose meta.achieved records
/// where every cell stopped.
struct MergeResult {
  SweepMeta meta;  // merged = true
  std::vector<core::IndicatorAccumulator> accumulators;  // one per cell
  std::vector<core::IndicatorSummary> summaries;         // one per cell
  CostModel cost;  // fleet-wide per-cell cost (shard models merged)
  /// Adaptive provenance: the round loop's log and each cell's
  /// termination round (1-based). Empty for shard merges.
  std::vector<core::RoundLog> rounds;
  std::vector<std::uint64_t> cell_rounds;
};

/// merge_shards' rejection. The message names the input position(s) —
/// indices into the states vector — and the shard/shard_count each
/// recorded; `inputs` lists those positions so a caller can map them to
/// file names.
struct MergeError : std::invalid_argument {
  MergeError(const std::string& what, std::vector<std::size_t> positions)
      : std::invalid_argument(what), inputs(std::move(positions)) {}
  std::vector<std::size_t> inputs;
};

/// Merge shard states into per-cell results. Validates that every state
/// shares one sweep fingerprint, none is already merged, and the task
/// lists cover the sweep's task set — [0, task_count) for fixed budgets,
/// achieved_tasks(meta) for adaptive sweeps — exactly once; throws
/// MergeError otherwise. Partials fold in ascending (cell, superblock)
/// order — bit-identical to run_in_process (fixed) or to the adaptive
/// run that recorded the counts, no matter how the covering lists were
/// cut (contiguous ranges, cost-weighted LPT sets, or any mix). Shard
/// cost models merge into the result, so the merged state is itself a
/// weights source for the next `divsec_sweep plan`.
[[nodiscard]] MergeResult merge_shards(const std::vector<ShardState>& states);

/// The merged result as a writable state file (meta.merged = true, one
/// "task" per cell, the adaptive round log carried) — what divsec_report
/// consumes, `inspect` reads and `run --replay` replays.
[[nodiscard]] ShardState merged_state(const MergeResult& merged);

/// Per-cell summaries of a merged state file (meta.merged required;
/// std::invalid_argument otherwise).
[[nodiscard]] std::vector<core::IndicatorSummary> summaries_from_merged(
    const ShardState& merged);

/// The sweep's measurement CSV: the policy arm as the single swept
/// factor, rendered through core::measurement_csv so columns match every
/// other measurement artifact in the project.
[[nodiscard]] std::string sweep_csv(
    const SweepMeta& meta, const std::vector<core::IndicatorSummary>& cells);

/// Machine-readable merged summary (exact doubles).
[[nodiscard]] std::string summary_json(
    const SweepMeta& meta, const std::vector<core::IndicatorSummary>& cells);

}  // namespace divsec::dist
