// Tests for the adaptive sweep controller: the shared stopping rule
// (sim/stopping.h), the one adaptive round loop
// (MeasurementEngine::measure_scenarios_adaptive), its dist:: packaging
// (dist::run_adaptive), and the replay contract — the recorded per-cell
// achieved counts reproduce the adaptive results bit for bit through any
// thread count and any shard cut. The adaptive CSV itself is pinned in
// test_golden_digests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "core/measurement.h"
#include "dist/adaptive.h"
#include "dist/state_codec.h"
#include "dist/sweep.h"
#include "scenario/presets.h"
#include "sim/executor.h"
#include "sim/stopping.h"
#include "stats/rng.h"

namespace divsec {
namespace {

// ---- the stopping predicate ------------------------------------------------

stats::OnlineStats filled_stats(double mean, double spread, std::size_t n) {
  stats::OnlineStats s;
  for (std::size_t i = 0; i < n; ++i)
    s.add(mean + (i % 2 == 0 ? spread : -spread));
  return s;
}

TEST(StoppingRule, NeverStopsBelowMinReplications) {
  sim::StoppingRule rule;
  rule.min_replications = 10;
  rule.max_replications = 100;
  // Zero variance: converged by any precision measure — but min wins.
  const stats::OnlineStats nine = filled_stats(5.0, 0.0, 9);
  ASSERT_TRUE(sim::precision_reached(nine, rule));
  EXPECT_FALSE(sim::should_stop(nine.count(), true, rule));
  const stats::OnlineStats ten = filled_stats(5.0, 0.0, 10);
  EXPECT_TRUE(
      sim::should_stop(ten.count(), sim::precision_reached(ten, rule), rule));
}

TEST(StoppingRule, AlwaysStopsAtMaxReplications) {
  sim::StoppingRule rule;
  rule.min_replications = 2;
  rule.max_replications = 50;
  rule.relative_precision = 1e-12;  // unreachable
  const stats::OnlineStats noisy = filled_stats(1.0, 10.0, 50);
  EXPECT_FALSE(sim::precision_reached(noisy, rule));
  // The cap, not convergence.
  EXPECT_TRUE(sim::should_stop(noisy.count(), false, rule));
  EXPECT_FALSE(sim::should_stop(noisy.count() - 1, false, rule));
}

TEST(StoppingRule, PrecisionNeedsTwoSamples) {
  sim::StoppingRule rule;
  rule.relative_precision = 1e9;  // any CI would pass
  stats::OnlineStats one;
  one.add(3.0);
  EXPECT_FALSE(sim::precision_reached(one, rule));
  one.add(3.0);
  EXPECT_TRUE(sim::precision_reached(one, rule));
}

TEST(StoppingRule, AbsoluteFloorCoversNearZeroMeans) {
  // The near-zero-mean failure of the pure relative rule: mean ~ 0 makes
  // rel * |mean| ~ 0, so the relative criterion can never be met even
  // when the half-width is tiny in absolute terms.
  const stats::OnlineStats near_zero = filled_stats(1e-9, 1e-3, 1000);
  sim::StoppingRule relative_only;
  relative_only.relative_precision = 0.05;
  relative_only.absolute_precision = 0.0;
  EXPECT_FALSE(sim::precision_reached(near_zero, relative_only));

  sim::StoppingRule with_floor = relative_only;
  with_floor.absolute_precision = 0.01;  // hw ~ 6e-5 passes the floor
  EXPECT_TRUE(sim::precision_reached(near_zero, with_floor));
}

TEST(StoppingRule, EitherCriterionStops) {
  const stats::OnlineStats tight = filled_stats(100.0, 0.1, 400);
  sim::StoppingRule rel;
  rel.relative_precision = 0.05;
  EXPECT_TRUE(sim::precision_reached(tight, rel));
  sim::StoppingRule abs;
  abs.relative_precision = 0.0;
  abs.absolute_precision = 0.05;
  EXPECT_TRUE(sim::precision_reached(tight, abs));
  sim::StoppingRule neither;
  neither.relative_precision = 0.0;
  neither.absolute_precision = 0.0;
  EXPECT_FALSE(sim::precision_reached(tight, neither));
}

// ---- schedule resolution ---------------------------------------------------

TEST(AdaptiveSchedule, DefaultsAndClamping) {
  core::AdaptiveOptions opts;
  // Defaults: min = one superblock, max = budget, round = one superblock.
  const auto def = core::resolve_adaptive_schedule(opts, 1000, 64);
  EXPECT_EQ(def.rule.min_replications, 64u);
  EXPECT_EQ(def.rule.max_replications, 1000u);
  EXPECT_EQ(def.first_superblocks, 1u);
  EXPECT_EQ(def.round_superblocks, 1u);

  // Explicit knobs clamp to the budget and round up to superblocks.
  opts.min_replications = 200;   // ceil(200/64) = 4 superblocks
  opts.max_replications = 5000;  // above budget -> clamped
  opts.round_replications = 100;
  const auto expl = core::resolve_adaptive_schedule(opts, 1000, 64);
  EXPECT_EQ(expl.rule.min_replications, 200u);
  EXPECT_EQ(expl.rule.max_replications, 1000u);
  EXPECT_EQ(expl.first_superblocks, 4u);
  EXPECT_EQ(expl.round_superblocks, 2u);

  // min above the budget collapses to the budget (max stays >= min).
  opts.min_replications = 4000;
  const auto clamped = core::resolve_adaptive_schedule(opts, 1000, 64);
  EXPECT_EQ(clamped.rule.min_replications, 1000u);
  EXPECT_GE(clamped.rule.max_replications, clamped.rule.min_replications);
}

// ---- the in-process adaptive engine ----------------------------------------

/// Small but multi-superblock sweep (plant_small, 3 policy arms).
dist::SweepSpec small_spec() {
  dist::SweepSpec spec;
  spec.preset = "plant_small";
  spec.seed = 4242;
  spec.replications = 256;
  spec.replication_block = 8;
  spec.superblock = 32;  // 8 superblocks per cell
  return spec;
}

void expect_bit_identical(const core::IndicatorSummary& a,
                          const core::IndicatorSummary& b) {
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.tta.mean(), b.tta.mean());
  EXPECT_EQ(a.tta.variance(), b.tta.variance());
  EXPECT_EQ(a.ttsf.mean(), b.ttsf.mean());
  EXPECT_EQ(a.ttsf.variance(), b.ttsf.variance());
  EXPECT_EQ(a.final_ratio.mean(), b.final_ratio.mean());
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.tta_event.restricted_mean, b.tta_event.restricted_mean);
  EXPECT_EQ(a.ttsf_event.q90, b.ttsf_event.q90);
}

std::vector<core::IndicatorSummary> engine_adaptive(
    const dist::SweepSpec& spec, const core::AdaptiveOptions& adaptive,
    const sim::Executor* executor, core::AdaptiveReport* report = nullptr) {
  const divers::VariantCatalog catalog =
      divers::VariantCatalog::standard(spec.seed);
  const attack::ThreatProfile profile = dist::threat_profile(spec.threat);
  const core::MeasurementEngine engine(catalog, profile,
                                       dist::sweep_options(spec, executor));
  return engine.measure_scenarios_adaptive(dist::expand_plan(spec, catalog),
                                           adaptive, report);
}

TEST(EngineAdaptive, LooseTargetStopsEveryCellAtMin) {
  core::AdaptiveOptions adaptive;
  adaptive.relative_precision = 0.0;
  adaptive.absolute_precision = 1e6;  // any half-width passes
  core::AdaptiveReport report;
  const auto summaries =
      engine_adaptive(small_spec(), adaptive, nullptr, &report);
  ASSERT_EQ(summaries.size(), 3u);
  EXPECT_EQ(report.total_rounds, 1u);
  for (std::size_t c = 0; c < summaries.size(); ++c) {
    EXPECT_EQ(report.achieved[c], 32u);  // min = one superblock
    EXPECT_EQ(report.cell_rounds[c], 1u);
    EXPECT_EQ(summaries[c].replications, 32u);
  }
  EXPECT_EQ(report.total_replications, 96u);
}

TEST(EngineAdaptive, UnreachableTargetCapsAtBudgetAndMatchesFixedRun) {
  const dist::SweepSpec spec = small_spec();
  core::AdaptiveOptions adaptive;
  adaptive.relative_precision = 1e-12;  // unreachable
  core::AdaptiveReport report;
  const auto adaptive_sums = engine_adaptive(spec, adaptive, nullptr, &report);
  for (std::size_t c = 0; c < adaptive_sums.size(); ++c)
    EXPECT_EQ(report.achieved[c], spec.replications);

  // Exhausting the budget must land exactly on the fixed-budget result —
  // the adaptive fold visits the identical superblocks in the identical
  // order.
  const auto fixed_sums = dist::run_in_process(spec);
  ASSERT_EQ(adaptive_sums.size(), fixed_sums.size());
  for (std::size_t c = 0; c < fixed_sums.size(); ++c)
    expect_bit_identical(adaptive_sums[c], fixed_sums[c]);
}

TEST(EngineAdaptive, ResultIndependentOfThreadCount) {
  core::AdaptiveOptions adaptive;
  adaptive.relative_precision = 0.10;
  adaptive.absolute_precision = 0.02;
  std::vector<core::IndicatorSummary> reference;
  core::AdaptiveReport ref_report;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    const sim::Executor executor(threads);
    core::AdaptiveReport report;
    const auto summaries =
        engine_adaptive(small_spec(), adaptive, &executor, &report);
    if (reference.empty()) {
      reference = summaries;
      ref_report = report;
      continue;
    }
    ASSERT_EQ(summaries.size(), reference.size());
    EXPECT_EQ(report.achieved, ref_report.achieved);
    EXPECT_EQ(report.cell_rounds, ref_report.cell_rounds);
    EXPECT_EQ(report.total_rounds, ref_report.total_rounds);
    for (std::size_t c = 0; c < reference.size(); ++c)
      expect_bit_identical(summaries[c], reference[c]);
  }
}

TEST(EngineAdaptive, RejectsInvalidOptions) {
  // Both precision criteria disabled: no cell could ever converge.
  core::AdaptiveOptions no_target;
  no_target.relative_precision = 0.0;
  no_target.absolute_precision = 0.0;
  EXPECT_THROW((void)engine_adaptive(small_spec(), no_target, nullptr),
               std::invalid_argument);
}

TEST(EngineAdaptive, DefaultOptionsRun) {
  // Default MeasurementOptions and default AdaptiveOptions make a valid
  // adaptive sweep.
  const divers::VariantCatalog catalog = divers::VariantCatalog::standard(2013);
  const attack::ThreatProfile profile = attack::ThreatProfile::stuxnet();
  const sim::Executor serial{1};
  core::MeasurementOptions options;
  options.executor = &serial;
  core::ScenarioSweepPlan plan;
  plan.cells.push_back({scenario::make_preset("plant_small", catalog, 17,
                                              scenario::VariantPolicy::kMonoculture)
                            .scenario,
                        2013});
  std::vector<core::IndicatorSummary> out;
  ASSERT_NO_THROW(out = core::MeasurementEngine(catalog, profile, options)
                            .measure_scenarios_adaptive(plan, {}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_GT(out[0].replications, 0u);
  EXPECT_LE(out[0].replications, options.replications);
}

// ---- the dist:: packaging --------------------------------------------------

core::AdaptiveOptions adaptive_options() {
  core::AdaptiveOptions options;
  options.relative_precision = 0.10;
  options.absolute_precision = 0.02;
  return options;
}

TEST(RunAdaptive, RecordsProvenance) {
  const dist::MergeResult result =
      dist::run_adaptive(small_spec(), adaptive_options());
  ASSERT_FALSE(result.rounds.empty());
  EXPECT_EQ(result.rounds.front().round, 1u);
  EXPECT_EQ(result.rounds.front().active_cells, 3u);
  std::uint64_t logged_reps = 0, logged_tasks = 0;
  for (const auto& r : result.rounds) {
    logged_reps += r.replications;
    logged_tasks += r.tasks;
  }
  const std::uint64_t total = std::accumulate(
      result.meta.achieved.begin(), result.meta.achieved.end(),
      std::uint64_t{0});
  EXPECT_EQ(logged_reps, total);
  EXPECT_EQ(logged_tasks, dist::achieved_tasks(result.meta).size());
  for (std::size_t c = 0; c < result.cell_rounds.size(); ++c) {
    EXPECT_GE(result.cell_rounds[c], 1u);
    EXPECT_LE(result.cell_rounds[c], result.rounds.size());
  }
  EXPECT_LE(total, result.meta.cells * result.meta.replications);
  EXPECT_TRUE(result.meta.merged);
  EXPECT_EQ(result.meta.shard_count, 1u);
}

TEST(RunAdaptive, CostModelCoversExactlyTheAchievedReplications) {
  const dist::MergeResult result =
      dist::run_adaptive(small_spec(), adaptive_options());
  ASSERT_EQ(result.cost.cells.size(), result.meta.cells);
  for (std::size_t c = 0; c < result.meta.cells; ++c) {
    EXPECT_EQ(result.cost.cells[c].replications, result.meta.achieved[c])
        << "cell " << c;
    EXPECT_GT(result.cost.cells[c].seconds, 0.0) << "cell " << c;
  }
}

TEST(RunAdaptive, RejectsInvalidInputs) {
  dist::SweepSpec replay_input = small_spec();
  replay_input.achieved = {32, 32, 32};
  EXPECT_THROW((void)dist::run_adaptive(replay_input, adaptive_options()),
               std::invalid_argument);
}

// ---- the replay contract ---------------------------------------------------

/// Replay the recorded achieved counts over `shard_count` contiguous
/// slices of the achieved task list (run_shard, the CLI's `run --replay
/// --shard i/K` cut) and merge.
dist::MergeResult replay(const dist::ShardState& recorded,
                         std::size_t shard_count,
                         const sim::Executor* executor = nullptr) {
  const dist::SweepSpec spec = dist::spec_from_meta(recorded.meta);
  std::vector<dist::ShardState> states;
  for (std::size_t i = 0; i < shard_count; ++i)
    states.push_back(dist::run_shard(spec, i, shard_count, executor));
  return dist::merge_shards(states);
}

TEST(AdaptiveReplay, ReproducesTheAdaptiveRunForAnyShardCut) {
  const dist::MergeResult result =
      dist::run_adaptive(small_spec(), adaptive_options());
  const dist::ShardState recorded = dist::merged_state(result);
  const std::string adaptive_csv =
      dist::sweep_csv(result.meta, result.summaries);

  for (const std::size_t cut : {std::size_t{1}, std::size_t{3}}) {
    const dist::MergeResult replayed = replay(recorded, cut);
    ASSERT_EQ(replayed.summaries.size(), result.summaries.size());
    for (std::size_t c = 0; c < result.summaries.size(); ++c)
      expect_bit_identical(replayed.summaries[c], result.summaries[c]);
    EXPECT_EQ(dist::sweep_csv(replayed.meta, replayed.summaries),
              adaptive_csv);
    EXPECT_EQ(replayed.meta.achieved, result.meta.achieved);
  }
}

TEST(AdaptiveReplay, ThreadCountDoesNotChangeTheReplay) {
  const dist::MergeResult result =
      dist::run_adaptive(small_spec(), adaptive_options());
  const dist::ShardState recorded = dist::merged_state(result);
  const sim::Executor one(1), eight(8);
  const dist::MergeResult serial = replay(recorded, 2, &one);
  const dist::MergeResult parallel = replay(recorded, 2, &eight);
  for (std::size_t c = 0; c < serial.summaries.size(); ++c)
    expect_bit_identical(serial.summaries[c], parallel.summaries[c]);
  EXPECT_EQ(dist::sweep_csv(serial.meta, serial.summaries),
            dist::sweep_csv(parallel.meta, parallel.summaries));
}

TEST(AdaptiveReplay, MergeValidatesTheAchievedTaskSet) {
  const dist::MergeResult result =
      dist::run_adaptive(small_spec(), adaptive_options());
  const dist::ShardState recorded = dist::merged_state(result);
  const dist::SweepSpec spec = dist::spec_from_meta(recorded.meta);
  const std::vector<std::uint64_t> tasks = dist::achieved_tasks(recorded.meta);
  ASSERT_LT(tasks.size(),
            static_cast<std::size_t>(
                dist::sweep_shard_plan(recorded.meta).task_count()))
      << "spec too loose: every cell hit the cap, nothing to validate";

  // Missing coverage: drop the last achieved task.
  {
    std::vector<std::uint64_t> short_list(tasks.begin(), tasks.end() - 1);
    const dist::ShardState partial =
        dist::run_shard_tasks(spec, short_list, 0, 1);
    EXPECT_THROW((void)dist::merge_shards({partial}), std::invalid_argument);
  }

  // A task outside the achieved prefix of its cell: swap in the first
  // task id the recorded counts do NOT cover.
  {
    std::uint64_t foreign = 0;
    std::vector<char> covered(
        static_cast<std::size_t>(
            dist::sweep_shard_plan(recorded.meta).task_count()),
        0);
    for (const auto t : tasks) covered[static_cast<std::size_t>(t)] = 1;
    while (covered[static_cast<std::size_t>(foreign)] != 0) ++foreign;
    std::vector<std::uint64_t> with_foreign(tasks.begin(), tasks.end() - 1);
    with_foreign.push_back(foreign);
    std::sort(with_foreign.begin(), with_foreign.end());
    const dist::ShardState wrong =
        dist::run_shard_tasks(spec, with_foreign, 0, 1);
    EXPECT_THROW((void)dist::merge_shards({wrong}), std::invalid_argument);
  }
}

// ---- state codec v3 --------------------------------------------------------

TEST(AdaptiveState, EncodeDecodeEncodeIsByteStable) {
  const dist::MergeResult result =
      dist::run_adaptive(small_spec(), adaptive_options());
  const dist::ShardState state = dist::merged_state(result);
  ASSERT_FALSE(state.meta.achieved.empty());
  ASSERT_FALSE(state.rounds.empty());
  ASSERT_FALSE(state.cell_rounds.empty());

  const std::string bytes = dist::encode_shard_state(state);
  const dist::ShardState decoded = dist::decode_shard_state(bytes);
  EXPECT_EQ(dist::encode_shard_state(decoded), bytes);

  EXPECT_EQ(decoded.meta.achieved, state.meta.achieved);
  EXPECT_EQ(decoded.cell_rounds, state.cell_rounds);
  ASSERT_EQ(decoded.rounds.size(), state.rounds.size());
  for (std::size_t r = 0; r < state.rounds.size(); ++r) {
    EXPECT_EQ(decoded.rounds[r].round, state.rounds[r].round);
    EXPECT_EQ(decoded.rounds[r].active_cells, state.rounds[r].active_cells);
    EXPECT_EQ(decoded.rounds[r].tasks, state.rounds[r].tasks);
    EXPECT_EQ(decoded.rounds[r].replications, state.rounds[r].replications);
    EXPECT_EQ(decoded.rounds[r].wall_ms, state.rounds[r].wall_ms);
    EXPECT_EQ(decoded.rounds[r].merge_ms, state.rounds[r].merge_ms);
  }
}

TEST(AdaptiveState, AchievedCountsAreSweepIdentity) {
  // A fixed-budget meta and an adaptive meta of the same spec must not
  // cross-merge: the achieved counts are part of the fingerprint.
  const dist::SweepSpec spec = small_spec();
  const dist::SweepMeta fixed = dist::make_meta(spec);
  dist::SweepSpec adaptive_spec = spec;
  adaptive_spec.achieved = {32, 64, 32};
  const dist::SweepMeta adaptive = dist::make_meta(adaptive_spec);
  EXPECT_NE(dist::sweep_fingerprint(fixed), dist::sweep_fingerprint(adaptive));

  dist::SweepSpec other = spec;
  other.achieved = {32, 64, 64};  // one cell differs
  EXPECT_NE(dist::sweep_fingerprint(adaptive),
            dist::sweep_fingerprint(dist::make_meta(other)));
}

TEST(AdaptiveState, MakeMetaValidatesAchieved) {
  dist::SweepSpec wrong_size = small_spec();
  wrong_size.achieved = {32, 32};  // 3 cells
  EXPECT_THROW((void)dist::make_meta(wrong_size), std::invalid_argument);

  dist::SweepSpec zero = small_spec();
  zero.achieved = {32, 0, 32};
  EXPECT_THROW((void)dist::make_meta(zero), std::invalid_argument);

  dist::SweepSpec above_budget = small_spec();
  above_budget.achieved = {32, 32, 1000};  // budget is 256
  EXPECT_THROW((void)dist::make_meta(above_budget), std::invalid_argument);
}

TEST(AdaptiveState, AchievedTasksCoversEachCellPrefix) {
  dist::SweepSpec spec = small_spec();  // superblock 32, 8 per cell
  spec.achieved = {32, 33, 256};        // 1, 2, and 8 superblocks
  const dist::SweepMeta meta = dist::make_meta(spec);
  const std::vector<std::uint64_t> tasks = dist::achieved_tasks(meta);
  const std::vector<std::uint64_t> expected = {0,  8,  9,  16, 17, 18,
                                               19, 20, 21, 22, 23};
  EXPECT_EQ(tasks, expected);

  // A fixed-budget meta covers the full task space.
  const dist::SweepMeta fixed = dist::make_meta(small_spec());
  EXPECT_EQ(dist::achieved_tasks(fixed).size(), 24u);
}

}  // namespace
}  // namespace divsec
