// Tests for the streaming, block-sharded measurement backend
// (core/measurement.cpp on sim::reduce_groups): summaries must be
// bit-identical across DIVSEC_THREADS ∈ {1, 4, 8}, unchanged when a cell
// visitor makes the engine retain samples, and well-defined on the edge
// cases (one replication, fully censored cells, empty ranges).
#include <gtest/gtest.h>

#include <vector>

#include "core/indicator_accumulator.h"
#include "core/measurement.h"
#include "scenario/presets.h"
#include "sim/executor.h"
#include "sim/streaming.h"

namespace divsec::core {
namespace {

void expect_summary_bit_identical(const IndicatorSummary& a,
                                  const IndicatorSummary& b) {
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.horizon_hours, b.horizon_hours);
  // EXPECT_EQ (not NEAR): the contract is exact reproduction.
  EXPECT_EQ(a.tta.mean(), b.tta.mean());
  EXPECT_EQ(a.tta.variance(), b.tta.variance());
  EXPECT_EQ(a.ttsf.mean(), b.ttsf.mean());
  EXPECT_EQ(a.ttsf.variance(), b.ttsf.variance());
  EXPECT_EQ(a.final_ratio.mean(), b.final_ratio.mean());
  EXPECT_EQ(a.tta_censored, b.tta_censored);
  EXPECT_EQ(a.ttsf_censored, b.ttsf_censored);
  EXPECT_EQ(a.successes, b.successes);
  // The censoring-aware estimates ride the same contract.
  EXPECT_EQ(a.tta_event.restricted_mean, b.tta_event.restricted_mean);
  EXPECT_EQ(a.tta_event.median, b.tta_event.median);
  EXPECT_EQ(a.tta_event.q50, b.tta_event.q50);
  EXPECT_EQ(a.tta_event.q90, b.tta_event.q90);
  EXPECT_EQ(a.ttsf_event.restricted_mean, b.ttsf_event.restricted_mean);
  EXPECT_EQ(a.ttsf_event.median, b.ttsf_event.median);
  EXPECT_EQ(a.ttsf_event.q50, b.ttsf_event.q50);
  EXPECT_EQ(a.ttsf_event.q90, b.ttsf_event.q90);
}

class StreamingMeasurementFixture : public ::testing::Test {
 protected:
  [[nodiscard]] MeasurementOptions options(const sim::Executor* ex,
                                           std::size_t reps) const {
    MeasurementOptions mo;
    mo.engine = Engine::kCampaign;
    mo.replications = reps;
    mo.seed = 2013;
    mo.executor = ex;
    // A small block so even modest replication counts exercise multi-
    // block folds and ascending-order merges.
    mo.replication_block = 8;
    return mo;
  }

  [[nodiscard]] ScenarioSweepPlan plant_medium_plan() const {
    const scenario::VariantPolicy policies[] = {
        scenario::VariantPolicy::kMonoculture,
        scenario::VariantPolicy::kZoneStratified,
    };
    const auto arms = scenario::make_preset_arms("plant_medium", cat, 17, policies);
    ScenarioSweepPlan plan;
    plan.cells.push_back({arms[0].scenario, 101});
    plan.cells.push_back({arms[1].scenario, 202});
    return plan;
  }

  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  sim::Executor one{1};
  sim::Executor four{4};
  sim::Executor eight{8};
};

TEST_F(StreamingMeasurementFixture, BitIdenticalAcrossThreadCounts) {
  const ScenarioSweepPlan plan = plant_medium_plan();
  std::vector<std::vector<IndicatorSummary>> results;
  for (const sim::Executor* ex : {&one, &four, &eight}) {
    const MeasurementEngine engine(cat, stuxnet, options(ex, 30));
    results.push_back(engine.measure_scenarios(plan));
  }
  for (std::size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[v].size(), results[0].size());
    for (std::size_t c = 0; c < results[0].size(); ++c)
      expect_summary_bit_identical(results[0][c], results[v][c]);
  }
}

TEST_F(StreamingMeasurementFixture, StreamingMatchesVisitedPathExactly) {
  const ScenarioSweepPlan plan = plant_medium_plan();
  const MeasurementEngine engine(cat, stuxnet, options(&four, 30));
  std::vector<std::vector<IndicatorSample>> samples(plan.cell_count());
  const auto a = engine.measure_scenarios(plan);
  const auto b = engine.measure_scenarios(
      plan, [&samples](std::size_t c, std::span<const IndicatorSample> s) {
        samples[c].assign(s.begin(), s.end());
      });
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    expect_summary_bit_identical(a[c], b[c]);
    EXPECT_EQ(samples[c].size(), 30u);
    // Recompute the moments from the visited samples: the streaming
    // counts and Welford moments must agree with the raw data.
    stats::OnlineStats tta;
    std::size_t censored = 0;
    for (const auto& s : samples[c]) {
      tta.add(s.tta);
      if (s.tta_censored) ++censored;
    }
    EXPECT_EQ(a[c].tta_censored, censored);
    EXPECT_NEAR(a[c].tta.mean(), tta.mean(), 1e-9);
    EXPECT_NEAR(a[c].tta.variance(), tta.variance(), 1e-6);
  }
}

TEST_F(StreamingMeasurementFixture, SingleReplicationCell) {
  const ScenarioSweepPlan plan = plant_medium_plan();
  const MeasurementEngine engine(cat, stuxnet, options(&four, 1));
  const auto out = engine.measure_scenarios(plan);
  ASSERT_EQ(out.size(), plan.cell_count());
  for (const auto& s : out) {
    EXPECT_EQ(s.replications, 1u);
    EXPECT_EQ(s.tta.count(), 1u);
    EXPECT_EQ(s.tta_event.observations, 1u);
  }
}

TEST(StreamingMeasurementEdge, AllCensoredCellReportsUnbiasedFields) {
  // A staged-SAN measurement with a microscopic horizon: nothing ever
  // succeeds or is detected, so every TTA/TTSF value is censored.
  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const SystemDescription desc = make_scope_description(cat);
  MeasurementOptions mo;
  mo.engine = Engine::kStagedSan;
  mo.replications = 40;
  mo.seed = 5;
  mo.campaign.t_max_hours = 1e-6;
  const sim::Executor serial{1};
  mo.executor = &serial;
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  const auto s = measure_indicators(desc, desc.baseline_configuration(), stuxnet, mo);
  EXPECT_EQ(s.tta_censored, 40u);
  EXPECT_DOUBLE_EQ(s.tta_censor_fraction(), 1.0);
  // No event observed: the product-limit median is undefined and the
  // restricted mean saturates at the horizon.
  EXPECT_FALSE(s.tta_event.median.has_value());
  // Bin-width summation: equal to the horizon up to accumulation error.
  EXPECT_NEAR(s.tta_event.restricted_mean, 1e-6, 1e-12);
  EXPECT_EQ(s.successes, 0u);
}

TEST(StreamingMeasurementEdge, EmptyRangesAreWellDefined) {
  const sim::Executor four{4};
  // parallel_for over an empty range is a no-op.
  std::size_t calls = 0;
  four.parallel_for(0, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  // reduce_groups with zero items returns the empty accumulators;
  // with zero groups it returns an empty vector.
  const auto make = [](std::size_t) { return IndicatorAccumulator(1.0, 4); };
  const auto fold = [](IndicatorAccumulator&, std::size_t, std::size_t) {
    FAIL() << "fold must not run on an empty range";
  };
  const auto none = sim::reduce_groups<IndicatorAccumulator>(
      four, 3, 0, 8, make, fold);
  ASSERT_EQ(none.size(), 3u);
  for (const auto& acc : none) EXPECT_EQ(acc.count(), 0u);
  const auto empty = sim::reduce_groups<IndicatorAccumulator>(
      four, 0, 100, 8, make, fold);
  EXPECT_TRUE(empty.empty());
  // An empty measurement plan measures to an empty summary list.
  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  MeasurementOptions mo;
  mo.executor = &four;
  const MeasurementEngine engine(cat, stuxnet, mo);
  EXPECT_TRUE(engine.measure_scenarios(ScenarioSweepPlan{}).empty());
}

TEST(StreamingMeasurementEdge, AccumulatorMergeMatchesSequentialFold) {
  // Folding blocks then merging in order must equal folding the whole
  // sequence through the identical block structure — the invariant the
  // engine's two paths rely on.
  std::vector<IndicatorSample> samples;
  for (int i = 0; i < 100; ++i) {
    IndicatorSample s;
    s.tta = 1.0 + 0.37 * i;
    s.tta_censored = i % 7 == 0;
    s.ttsf = 2.0 + 0.11 * i;
    s.ttsf_censored = i % 5 == 0;
    s.attack_succeeded = i % 3 == 0;
    s.final_ratio = (i % 10) / 10.0;
    samples.push_back(s);
  }
  const double horizon = 60.0;
  IndicatorAccumulator blocked(horizon, 16);
  for (std::size_t lo = 0; lo < samples.size(); lo += 16) {
    IndicatorAccumulator part(horizon, 16);
    for (std::size_t i = lo; i < std::min(samples.size(), lo + 16); ++i)
      part.add(samples[i]);
    blocked.merge(part);
  }
  IndicatorAccumulator replay(horizon, 16);
  for (std::size_t lo = 0; lo < samples.size(); lo += 16) {
    IndicatorAccumulator part(horizon, 16);
    for (std::size_t i = lo; i < std::min(samples.size(), lo + 16); ++i)
      part.add(samples[i]);
    replay.merge(part);
  }
  const IndicatorSummary a = blocked.summarize();
  const IndicatorSummary b = replay.summarize();
  EXPECT_EQ(a.tta.mean(), b.tta.mean());
  EXPECT_EQ(a.tta_event.q50, b.tta_event.q50);
  EXPECT_EQ(a.tta_event.restricted_mean, b.tta_event.restricted_mean);
  EXPECT_EQ(a.successes, 34u);
  EXPECT_EQ(a.replications, 100u);
}

}  // namespace
}  // namespace divsec::core
