// Tests for elastic sweep scheduling: the work-queue reducer must
// perform exactly the serial left fold for any thread count, a
// cost-weighted LPT plan must cover the task space exactly once and
// merge bit-identically to the in-process run, the cost model must
// round-trip through the state codec byte-stably, and weights/tasks
// files from a different sweep must be rejected by fingerprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/measurement.h"
#include "dist/cost_model.h"
#include "dist/state_codec.h"
#include "dist/sweep.h"
#include "sim/executor.h"
#include "sim/shard_plan.h"
#include "sim/streaming.h"

namespace divsec {
namespace {

// ---- the reducer against a serial left fold -------------------------------

/// Order-sensitive accumulator: x' = x * 1.0000001 + v is not
/// associative, so any deviation in fold or merge order changes the bits.
struct OrderSensitive {
  double x = 0.0;
  std::uint64_t folds = 0;
  void fold(double v) {
    x = x * 1.0000001 + v;
    ++folds;
  }
  void merge(const OrderSensitive& o) {
    x = x * 1.0000001 + o.x;
    folds += o.folds;
  }
};

TEST(ElasticSchedule, ReducerIsTheSerialLeftFoldForAnyThreadCount) {
  constexpr std::size_t kCount = 1000;
  constexpr std::size_t kBlock = 64;
  const auto make = [](std::size_t g) {
    OrderSensitive acc;
    acc.x = static_cast<double>(g) * 0.25;
    return acc;
  };
  const auto fold = [](OrderSensitive& acc, std::size_t g, std::size_t i) {
    acc.fold(static_cast<double>(g * 7919 + i) * 1e-3);
  };

  // 13 groups feed every thread; 2 groups (fewer than threads) make the
  // threads share a group's blocks and park early finishers.
  for (const std::size_t groups : {std::size_t{13}, std::size_t{2}}) {
    // The contract, spelled out: group g is make(g) merged with its block
    // partials in ascending block order.
    std::vector<OrderSensitive> reference;
    for (std::size_t g = 0; g < groups; ++g) {
      OrderSensitive acc = make(g);
      for (std::size_t lo = 0; lo < kCount; lo += kBlock) {
        OrderSensitive partial = make(g);
        for (std::size_t i = lo; i < std::min(kCount, lo + kBlock); ++i)
          fold(partial, g, i);
        acc.merge(partial);
      }
      reference.push_back(acc);
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                      std::size_t{8}}) {
      const sim::Executor ex(threads);
      std::vector<double> seconds;
      const std::vector<OrderSensitive> got = sim::reduce_groups<OrderSensitive>(
          ex, groups, kCount, kBlock, make, fold, &seconds);
      ASSERT_EQ(got.size(), groups);
      ASSERT_EQ(seconds.size(), groups);
      for (std::size_t g = 0; g < groups; ++g) {
        EXPECT_EQ(got[g].x, reference[g].x)
            << "groups=" << groups << " threads=" << threads;
        EXPECT_EQ(got[g].folds, reference[g].folds);
        EXPECT_GE(seconds[g], 0.0);
      }
    }
  }
}

/// Counts live accumulators; a moved-from one no longer counts.
struct Counted {
  static inline std::atomic<int> live{0};
  static inline std::atomic<int> peak{0};
  bool owns = true;
  Counted() { note(live.fetch_add(1) + 1); }
  Counted(Counted&& o) noexcept { o.owns = false; }
  Counted& operator=(Counted&& o) noexcept {
    if (owns) live.fetch_sub(1);
    owns = o.owns;
    o.owns = false;
    return *this;
  }
  Counted(const Counted&) = delete;
  ~Counted() {
    if (owns) live.fetch_sub(1);
  }
  void merge(const Counted&) {}
  static void note(int n) {
    int p = peak.load();
    while (n > p && !peak.compare_exchange_weak(p, n)) {
    }
  }
};

TEST(ElasticSchedule, StalledBlockParksAtMostTwiceThreads) {
  // Block 0 stalls while the other threads could race through the
  // group's remaining 63 blocks; parking must stay bounded anyway.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBlock = 4;
  constexpr std::size_t kBlocks = 64;
  const sim::Executor ex(kThreads);
  Counted::peak = 0;
  const auto out = sim::reduce_groups<Counted>(
      ex, 1, kBlocks * kBlock, kBlock, [](std::size_t) { return Counted{}; },
      [](Counted&, std::size_t, std::size_t i) {
        if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      });
  ASSERT_EQ(out.size(), 1u);
  // The result, one in-flight partial per thread, <= 2 (threads - 1) parked.
  EXPECT_LE(Counted::peak.load(),
            static_cast<int>(1 + kThreads + 2 * (kThreads - 1)));
}

/// Accumulator whose merge fails for a poisoned partial.
struct PoisonOnMerge {
  bool poison = false;
  void merge(const PoisonOnMerge& o) {
    if (o.poison) throw std::runtime_error("merge failed");
  }
};

TEST(ElasticSchedule, ThrowingItemReleasesWaitingThreads) {
  // Block 0 fails — in its fold, or in its merge under the lock — after
  // the other threads have parked up to the cap and started waiting for
  // it to merge; they must stop, not wait forever.
  const sim::Executor ex(4);
  for (const bool in_merge : {false, true}) {
    EXPECT_THROW(
        (void)sim::reduce_groups<PoisonOnMerge>(
            ex, 1, 256, 4, [](std::size_t) { return PoisonOnMerge{}; },
            [in_merge](PoisonOnMerge& acc, std::size_t, std::size_t i) {
              if (i != 0) return;
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
              if (!in_merge) throw std::runtime_error("fold failed");
              acc.poison = true;
            }),
        std::runtime_error)
        << (in_merge ? "merge" : "fold");
  }
}

// ---- thread-count invariance at the measurement engine ---------------------

dist::SweepSpec small_spec() {
  dist::SweepSpec spec;
  spec.preset = "plant_small";
  spec.seed = 4242;
  spec.replications = 50;
  spec.replication_block = 8;
  spec.superblock = 16;  // 4 superblocks per cell -> 12 tasks
  return spec;
}

TEST(ElasticSchedule, EngineBitIdenticalAcrossThreadCounts) {
  const dist::SweepSpec spec = small_spec();
  const divers::VariantCatalog catalog =
      divers::VariantCatalog::standard(spec.seed);
  const attack::ThreatProfile profile = dist::threat_profile(spec.threat);
  std::vector<core::IndicatorSummary> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    const sim::Executor ex(threads);
    const core::MeasurementEngine engine(catalog, profile,
                                         dist::sweep_options(spec, &ex));
    const auto summaries =
        engine.measure_scenarios(dist::expand_plan(spec, catalog));
    if (reference.empty()) {
      reference = summaries;
      continue;
    }
    ASSERT_EQ(summaries.size(), reference.size());
    for (std::size_t c = 0; c < summaries.size(); ++c) {
      EXPECT_EQ(summaries[c].tta.mean(), reference[c].tta.mean())
          << "threads=" << threads;
      EXPECT_EQ(summaries[c].tta.variance(), reference[c].tta.variance());
      EXPECT_EQ(summaries[c].ttsf.mean(), reference[c].ttsf.mean());
      EXPECT_EQ(summaries[c].successes, reference[c].successes);
      EXPECT_EQ(summaries[c].tta_event.restricted_mean,
                reference[c].tta_event.restricted_mean);
      EXPECT_EQ(summaries[c].ttsf_event.q90, reference[c].ttsf_event.q90);
    }
  }
}

// ---- cost model ------------------------------------------------------------

TEST(CostModel, SecPerRepFallbacks) {
  dist::CostModel cost;
  EXPECT_FALSE(cost.measured());
  EXPECT_EQ(cost.sec_per_rep(0), 1.0);  // no data: uniform

  cost.cells = {{100, 2.0}, {0, 0.0}, {50, 0.5}};
  EXPECT_TRUE(cost.measured());
  EXPECT_DOUBLE_EQ(cost.sec_per_rep(0), 0.02);
  EXPECT_DOUBLE_EQ(cost.sec_per_rep(2), 0.01);
  // Unmeasured cell: mean measured rate (2.5 s over 150 reps).
  EXPECT_DOUBLE_EQ(cost.sec_per_rep(1), 2.5 / 150.0);

  dist::CostModel other;
  other.cells = {{100, 1.0}, {10, 0.1}, {0, 0.0}};
  cost.merge(other);
  EXPECT_EQ(cost.cells[0].replications, 200u);
  EXPECT_DOUBLE_EQ(cost.cells[0].seconds, 3.0);
  EXPECT_EQ(cost.cells[1].replications, 10u);

  dist::CostModel mismatched;
  mismatched.cells = {{1, 1.0}};
  EXPECT_THROW(cost.merge(mismatched), std::invalid_argument);
}

TEST(CostModel, FingerprintCoversDynamicsNotReplicationCounts) {
  const dist::SweepSpec spec = small_spec();
  const dist::SweepMeta meta = dist::make_meta(spec);

  // Cost transfers across replication/aggregation parameters...
  dist::SweepSpec calibration = spec;
  calibration.replications = 500;
  calibration.superblock = 32;
  EXPECT_EQ(dist::cost_fingerprint(dist::make_meta(calibration)),
            dist::cost_fingerprint(meta));
  // ...but not across anything that changes the cells or their dynamics.
  dist::SweepSpec other = spec;
  other.seed = 7;
  EXPECT_NE(dist::cost_fingerprint(dist::make_meta(other)),
            dist::cost_fingerprint(meta));
  other = spec;
  other.preset = "plant_medium";
  EXPECT_NE(dist::cost_fingerprint(dist::make_meta(other)),
            dist::cost_fingerprint(meta));

  // The full sweep fingerprint stays strict: a different replication
  // count is a different task space.
  EXPECT_NE(dist::sweep_fingerprint(dist::make_meta(calibration)),
            dist::sweep_fingerprint(meta));
}

TEST(CostModel, ShardRunsMeasureTheirCells) {
  const dist::SweepSpec spec = small_spec();
  const dist::ShardState state = dist::run_shard(spec, 0, 2);
  ASSERT_EQ(state.cost.cells.size(), 3u);
  // Shard 0 of 2 owns tasks [0, 6): all of cell 0, half of cell 1.
  EXPECT_EQ(state.cost.cells[0].replications, spec.replications);
  EXPECT_GT(state.cost.cells[1].replications, 0u);
  EXPECT_EQ(state.cost.cells[2].replications, 0u);
  EXPECT_TRUE(state.cost.measured());
}

TEST(CostModel, FewTasksThanThreadsStillMeasuresAndMergesExactly) {
  // A shard owning fewer tasks than executor threads takes the static
  // block rounds (sub-task parallelism) with per-replication timing —
  // costs must still land per cell and the payload must stay identical
  // to the single-threaded run.
  const dist::SweepSpec spec = small_spec();  // 12 tasks
  const sim::Executor eight(8);
  const sim::Executor one(1);
  std::vector<dist::ShardState> states;
  for (std::size_t i = 0; i < 6; ++i)  // 2 tasks per shard < 8 threads
    states.push_back(dist::run_shard(spec, i, 6, i == 0 ? &eight : &one));
  EXPECT_TRUE(states[0].cost.measured());
  EXPECT_GT(states[0].cost.cells[0].replications, 0u);
  const dist::MergeResult merged = dist::merge_shards(states);
  const auto reference = dist::run_in_process(spec);
  for (std::size_t c = 0; c < reference.size(); ++c) {
    EXPECT_EQ(merged.summaries[c].tta.mean(), reference[c].tta.mean());
    EXPECT_EQ(merged.summaries[c].successes, reference[c].successes);
  }
}

// ---- cost-weighted plans ---------------------------------------------------

TEST(CostWeightedPlan, ExactCoverageForAnyShardCount) {
  const sim::ShardPlan plan = sim::ShardPlan::make(3, 50, 8, 16);  // 12 tasks
  dist::CostModel cost;
  cost.cells = {{50, 5.0}, {50, 1.0}, {50, 1.0}};  // cell 0 is 5x heavier

  for (const std::size_t k : {std::size_t{2}, std::size_t{3}, std::size_t{5}}) {
    const auto assignment = dist::cost_weighted_assignment(plan, cost, k);
    ASSERT_EQ(assignment.size(), k);
    std::set<std::uint64_t> seen;
    for (const auto& list : assignment) {
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (i > 0) {
          EXPECT_LT(list[i - 1], list[i]);  // strictly ascending
        }
        EXPECT_LT(list[i], plan.task_count());
        EXPECT_TRUE(seen.insert(list[i]).second) << "task assigned twice";
      }
    }
    EXPECT_EQ(seen.size(), plan.task_count()) << "K=" << k;

    // The LPT loads must beat the contiguous split's worst shard: the
    // contiguous front shard takes every cell-0 (5x) task.
    const auto loads = dist::assignment_cost(plan, cost, assignment);
    std::vector<std::vector<std::uint64_t>> contiguous(k);
    for (std::size_t s = 0; s < k; ++s) {
      const auto [lo, hi] = plan.shard_range(s, k);
      for (std::uint64_t t = lo; t < hi; ++t) contiguous[s].push_back(t);
    }
    const auto contiguous_loads = dist::assignment_cost(plan, cost, contiguous);
    const double lpt_worst = *std::max_element(loads.begin(), loads.end());
    const double contiguous_worst =
        *std::max_element(contiguous_loads.begin(), contiguous_loads.end());
    EXPECT_LT(lpt_worst, contiguous_worst) << "K=" << k;
  }
}

TEST(CostWeightedPlan, UniformCostsStillCoverExactly) {
  const sim::ShardPlan plan = sim::ShardPlan::make(2, 100, 8, 16);
  const auto assignment =
      dist::cost_weighted_assignment(plan, dist::CostModel{}, 3);
  std::size_t total = 0;
  for (const auto& list : assignment) total += list.size();
  EXPECT_EQ(total, plan.task_count());
  EXPECT_THROW(dist::cost_weighted_assignment(plan, dist::CostModel{}, 0),
               std::invalid_argument);
}

// ---- task-plan files -------------------------------------------------------

TEST(TaskPlanFile, RoundTripsAndValidates) {
  dist::TaskPlan plan;
  plan.fingerprint = 0xDEADBEEFCAFEF00DULL;
  plan.shards = {{0, 2, 5}, {1, 3}, {4}};
  const std::string text = dist::encode_task_plan(plan);
  const dist::TaskPlan back = dist::decode_task_plan(text);
  EXPECT_EQ(back.fingerprint, plan.fingerprint);
  EXPECT_EQ(back.shards, plan.shards);
  EXPECT_EQ(dist::encode_task_plan(back), text);

  // Structural rejections: bad header, incomplete coverage, duplicates,
  // descending lists, trailing garbage.
  EXPECT_THROW((void)dist::decode_task_plan("not a plan"), std::runtime_error);
  dist::TaskPlan hole = plan;
  hole.shards[2].clear();  // task 4 unassigned
  EXPECT_THROW((void)dist::decode_task_plan(dist::encode_task_plan(hole)),
               std::runtime_error);
  std::string dup = text;
  // "shard 2 1 4" -> claim task 1 twice instead.
  dup.replace(dup.rfind("1 4"), 3, "1 1");
  EXPECT_THROW((void)dist::decode_task_plan(dup), std::runtime_error);
  EXPECT_THROW((void)dist::decode_task_plan(text + "extra"),
               std::runtime_error);
  // Other spellings of the same plan used to decode: plans are
  // byte-canonical, encode(decode(x)) == x.
  const auto variant = [&text](const std::string& from, const std::string& to) {
    std::string s = text;
    s.replace(s.find(from), from.size(), to);
    return s;
  };
  for (const std::string& other :
       {variant("deadbeefcafef00d", "DEADBEEFCAFEF00D"),
        variant("shards 3", "shards +03"), variant("tasks 6", "tasks\t6"),
        variant("shard 2 1 4", "shard 2 1\n4")})
    EXPECT_THROW((void)dist::decode_task_plan(other), std::runtime_error) << other;
}

TEST(TaskPlanFile, ForeignFingerprintIsRejectedLoudly) {
  const dist::SweepMeta meta = dist::make_meta(small_spec());
  dist::SweepSpec other = small_spec();
  other.seed = 9;
  const dist::SweepMeta foreign = dist::make_meta(other);
  try {
    dist::require_fingerprint(dist::sweep_fingerprint(meta),
                              dist::sweep_fingerprint(foreign),
                              "task plan test.tasks");
    FAIL() << "foreign fingerprint accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("task plan test.tasks"), std::string::npos);
    EXPECT_NE(what.find("different sweep"), std::string::npos);
  }
  // Matching fingerprints pass silently.
  dist::require_fingerprint(dist::sweep_fingerprint(meta),
                            dist::sweep_fingerprint(meta), "task plan");
}

// ---- elastic end to end ----------------------------------------------------

TEST(ElasticSweep, CostWeightedShardsMergeBitIdenticalToInProcess) {
  const dist::SweepSpec spec = small_spec();
  const std::vector<core::IndicatorSummary> reference =
      dist::run_in_process(spec);

  // Calibrate from a static 2-shard run, plan K=3 by measured cost, run
  // the explicit lists, merge — the full elastic workflow in-process.
  std::vector<dist::ShardState> calibration;
  for (std::size_t i = 0; i < 2; ++i)
    calibration.push_back(dist::run_shard(spec, i, 2));
  const dist::MergeResult calibrated = dist::merge_shards(calibration);
  EXPECT_TRUE(calibrated.cost.measured());

  const sim::ShardPlan plan = dist::sweep_shard_plan(calibrated.meta);
  const auto assignment =
      dist::cost_weighted_assignment(plan, calibrated.cost, 3);
  std::vector<dist::ShardState> elastic;
  for (std::size_t i = 0; i < 3; ++i)
    elastic.push_back(dist::run_shard_tasks(spec, assignment[i], i, 3));
  const dist::MergeResult merged = dist::merge_shards(elastic);

  ASSERT_EQ(merged.summaries.size(), reference.size());
  for (std::size_t c = 0; c < reference.size(); ++c) {
    EXPECT_EQ(merged.summaries[c].tta.mean(), reference[c].tta.mean());
    EXPECT_EQ(merged.summaries[c].tta.variance(),
              reference[c].tta.variance());
    EXPECT_EQ(merged.summaries[c].ttsf.mean(), reference[c].ttsf.mean());
    EXPECT_EQ(merged.summaries[c].successes, reference[c].successes);
    EXPECT_EQ(merged.summaries[c].tta_event.restricted_mean,
              reference[c].tta_event.restricted_mean);
    EXPECT_EQ(merged.summaries[c].ttsf_event.median,
              reference[c].ttsf_event.median);
  }
  EXPECT_EQ(dist::sweep_csv(merged.meta, merged.summaries),
            dist::sweep_csv(dist::make_meta(spec), reference));

  // A task list the sweep does not know is rejected before any work.
  const divers::VariantCatalog catalog =
      divers::VariantCatalog::standard(spec.seed);
  const attack::ThreatProfile profile = dist::threat_profile(spec.threat);
  const core::MeasurementOptions options = dist::sweep_options(spec);
  const core::MeasurementEngine engine(catalog, profile, options);
  const std::vector<std::uint64_t> outside{plan.task_count()};
  EXPECT_THROW((void)engine.measure_scenario_tasks(
                   dist::expand_plan(spec, catalog), plan, outside),
               std::out_of_range);
  const std::vector<std::uint64_t> unsorted{3, 1};
  EXPECT_THROW((void)engine.measure_scenario_tasks(
                   dist::expand_plan(spec, catalog), plan, unsorted),
               std::invalid_argument);
}

}  // namespace
}  // namespace divsec
