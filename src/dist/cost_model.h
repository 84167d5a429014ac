// cost_model.h — measured per-cell cost and cost-weighted shard plans.
//
// Contiguous balanced task ranges (ShardPlan::shard_range) assume every
// superblock task costs the same. It does not: a monoculture arm lets
// the worm actually spread, so its replications simulate ~5x slower than
// a diversified arm's, and the fleet idles on whichever shard drew the
// expensive cells. The cost model closes that loop:
//
//  * while a shard runs, the engine measures each task's fold time
//    (sim::reduce_groups group_seconds) and the shard aggregates
//    it per cell — (replications folded, seconds spent) — into the
//    CostModel embedded in its serialized state (dist/state_codec.h);
//  * `divsec_sweep plan --weights <prior-run>.state` merges those
//    measurements and assigns tasks to K shards by LPT (longest
//    processing time first) over the estimated task costs;
//  * `divsec_sweep run --tasks <plan> --shard i` executes shard i's
//    explicit task list. The exact reducer already accepts any
//    exact-coverage mix of task lists, so merged results stay
//    bit-identical to the in-process run no matter how tasks were dealt.
//
// Cost transfers across replication counts: seconds/rep of a cell does
// not depend on how many replications are run, on the block size, or on
// the superblock size, so weights may come from a cheap calibration run.
// cost_fingerprint() hashes exactly the meta fields cost DOES depend on
// (preset, policies, threat, seed, horizon) — the weights-compatibility
// check — while task plans carry the full sweep_fingerprint() of their
// target sweep, because a task *assignment* is only meaningful for one
// exact task space.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/shard_plan.h"

namespace divsec::dist {

struct SweepMeta;  // state_codec.h

/// Measured simulation cost of one sweep cell: how many replications
/// were folded and how many wall-clock seconds they took. Zero
/// replications means "unmeasured".
struct CellCost {
  std::uint64_t replications = 0;
  double seconds = 0.0;
};

/// Per-cell cost measurements of a sweep. Mergeable across shards and
/// runs (element-wise sums), serialized inside every shard-state file.
struct CostModel {
  std::vector<CellCost> cells;  // one per sweep cell; empty = no data

  [[nodiscard]] bool measured() const noexcept {
    for (const auto& c : cells)
      if (c.replications > 0 && c.seconds > 0.0) return true;
    return false;
  }

  /// Combine measurements (element-wise). Either side may be empty; two
  /// non-empty models must agree on the cell count
  /// (std::invalid_argument otherwise).
  void merge(const CostModel& other);

  /// Estimated seconds per replication of `cell`: its measured rate when
  /// available, else the mean measured rate (an unmeasured cell is
  /// assumed average), else 1.0 (no data at all — every cell costs the
  /// same and a weighted plan degenerates to a balanced one).
  [[nodiscard]] double sec_per_rep(std::size_t cell) const;
};

/// The meta fields per-replication cost actually depends on — identity
/// minus the replication/aggregation parameters — so weights from a
/// cheap calibration run (fewer replications, different superblock)
/// apply to the full-scale sweep. Two metas with equal
/// cost_fingerprint() describe the same cells with the same dynamics.
[[nodiscard]] std::uint64_t cost_fingerprint(const SweepMeta& meta);

/// Cost-weighted assignment of every task of `plan` to `shards` shards:
/// LPT over the estimated task costs (sec_per_rep(cell) × replications
/// in the task), ties broken by ascending task id, each task landing on
/// the currently least-loaded shard (ties by ascending shard). Returns
/// one strictly ascending task list per shard; together they cover
/// [0, task_count) exactly once, so the exact reducer accepts any mix of
/// the resulting shard states. Deterministic in (plan, cost, shards).
[[nodiscard]] std::vector<std::vector<std::uint64_t>>
cost_weighted_assignment(const sim::ShardPlan& plan, const CostModel& cost,
                         std::size_t shards);

/// Estimated cost (seconds) of each shard's list under the model — the
/// planner's own prediction, printed by `divsec_sweep plan`.
[[nodiscard]] std::vector<double> assignment_cost(
    const sim::ShardPlan& plan, const CostModel& cost,
    const std::vector<std::vector<std::uint64_t>>& assignment);

/// A serialized task assignment: which sweep it belongs to (the full
/// sweep_fingerprint of the target spec — a plan is only valid for one
/// exact task space) and one ascending task list per shard.
struct TaskPlan {
  std::uint64_t fingerprint = 0;
  std::vector<std::vector<std::uint64_t>> shards;

  [[nodiscard]] std::size_t task_count() const noexcept {
    std::size_t n = 0;
    for (const auto& s : shards) n += s.size();
    return n;
  }
};

/// Plain-text task-plan codec ("divsec-tasks v1": header, fingerprint,
/// one line per shard). decode validates structure AND exact coverage —
/// every task in [0, task count) exactly once, each list strictly
/// ascending — and accepts only canonical bytes, encode(decode(x)) == x;
/// it throws std::runtime_error otherwise, so a plan that would under-
/// or over-run the sweep never reaches the engine.
[[nodiscard]] std::string encode_task_plan(const TaskPlan& plan);
[[nodiscard]] TaskPlan decode_task_plan(std::string_view text);

/// File shims; std::runtime_error on I/O failure.
void write_task_plan(const std::string& path, const TaskPlan& plan);
[[nodiscard]] TaskPlan read_task_plan(const std::string& path);

/// The 16-hex-digit rendering of a fingerprint used in plan files, state
/// headers, and error messages.
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fingerprint);

/// Shared validation (the PR-4 fingerprint rule, reused by `plan
/// --weights` and `run --tasks`): throws std::invalid_argument naming
/// `what`, both fingerprints, and the remedy when they disagree.
void require_fingerprint(std::uint64_t expected, std::uint64_t actual,
                         const std::string& what);

}  // namespace divsec::dist
