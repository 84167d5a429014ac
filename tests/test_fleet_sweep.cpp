// Tests for core::MeasurementEngine over generated enterprise fleets: a
// replication set must be bit-identical for any executor thread count
// (the DIVSEC_THREADS contract), under either engine, because job
// (cell, rep) draws only from Rng(cell.seed, rep).
#include <gtest/gtest.h>

#include "core/measurement.h"
#include "scenario/presets.h"
#include "sim/executor.h"

namespace divsec::core {
namespace {

void expect_bit_identical(const IndicatorSummary& a, const IndicatorSummary& b) {
  EXPECT_EQ(a.replications, b.replications);
  // EXPECT_EQ (not NEAR): the parallel path must reproduce the serial
  // floating-point results exactly, not just approximately.
  EXPECT_EQ(a.tta.mean(), b.tta.mean());
  EXPECT_EQ(a.tta.variance(), b.tta.variance());
  EXPECT_EQ(a.ttsf.mean(), b.ttsf.mean());
  EXPECT_EQ(a.ttsf.variance(), b.ttsf.variance());
  EXPECT_EQ(a.final_ratio.mean(), b.final_ratio.mean());
  EXPECT_EQ(a.tta_censored, b.tta_censored);
  EXPECT_EQ(a.ttsf_censored, b.ttsf_censored);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.tta_event.restricted_mean, b.tta_event.restricted_mean);
  EXPECT_EQ(a.ttsf_event.q50, b.ttsf_event.q50);
  EXPECT_EQ(a.ratio_curve, b.ratio_curve);
}

class FleetSweepFixture : public ::testing::Test {
 protected:
  [[nodiscard]] MeasurementOptions options(const sim::Executor* ex, std::size_t reps,
                                           Engine engine = Engine::kCampaign) const {
    MeasurementOptions mo;
    mo.engine = engine;
    mo.replications = reps;
    mo.seed = 2013;
    mo.executor = ex;
    return mo;
  }

  [[nodiscard]] ScenarioSweepPlan enterprise_plan(const char* preset) const {
    // Two arms of the fleet experiment over one generated fleet:
    // monoculture vs zone-stratified diversity, each its own sweep cell
    // with its own seed block.
    const scenario::VariantPolicy policies[] = {
        scenario::VariantPolicy::kMonoculture,
        scenario::VariantPolicy::kZoneStratified,
    };
    const auto arms = scenario::make_preset_arms(preset, cat, 17, policies);
    ScenarioSweepPlan plan;
    plan.cells.push_back({arms[0].scenario, 101});
    plan.cells.push_back({arms[1].scenario, 202});
    return plan;
  }

  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  sim::Executor serial{1};
  sim::Executor threaded{8};  // the DIVSEC_THREADS=8 configuration
};

TEST_F(FleetSweepFixture, Enterprise256SweepBitIdenticalAcrossThreadCounts) {
  const ScenarioSweepPlan plan = enterprise_plan("enterprise256");
  for (const Engine engine : {Engine::kCampaign, Engine::kStagedSan}) {
    SCOPED_TRACE(engine == Engine::kCampaign ? "campaign" : "staged SAN");
    const MeasurementEngine one(cat, stuxnet, options(&serial, 10, engine));
    const MeasurementEngine eight(cat, stuxnet, options(&threaded, 10, engine));
    const auto a = one.measure_scenarios(plan);
    const auto b = eight.measure_scenarios(plan);
    ASSERT_EQ(a.size(), plan.cell_count());
    ASSERT_EQ(b.size(), plan.cell_count());
    for (std::size_t c = 0; c < a.size(); ++c) expect_bit_identical(a[c], b[c]);
    // The fleet actually falls: some compromise happened somewhere.
    if (engine == Engine::kCampaign) EXPECT_GT(a[0].final_ratio.mean(), 0.0);
  }
}

TEST_F(FleetSweepFixture, Enterprise1024SweepBitIdenticalAcrossThreadCounts) {
  // The acceptance-scale fleet: a full replication set through the
  // engine, DIVSEC_THREADS=1 vs DIVSEC_THREADS=8 equivalents.
  const ScenarioSweepPlan plan = enterprise_plan("enterprise1024");
  const MeasurementEngine one(cat, stuxnet, options(&serial, 8));
  const MeasurementEngine eight(cat, stuxnet, options(&threaded, 8));
  const auto a = one.measure_scenarios(plan);
  const auto b = eight.measure_scenarios(plan);
  for (std::size_t c = 0; c < a.size(); ++c) expect_bit_identical(a[c], b[c]);
}

TEST_F(FleetSweepFixture, SweepIsAlsoDeterministicAcrossEngineInstances) {
  const ScenarioSweepPlan plan = enterprise_plan("plant_medium");
  const MeasurementEngine first(cat, stuxnet, options(&threaded, 16));
  const MeasurementEngine second(cat, stuxnet, options(&threaded, 16));
  const auto a = first.measure_scenarios(plan);
  const auto b = second.measure_scenarios(plan);
  for (std::size_t c = 0; c < a.size(); ++c) expect_bit_identical(a[c], b[c]);
}

TEST_F(FleetSweepFixture, CellVisitorSeesReplicationOrderedSamples) {
  ScenarioSweepPlan plan = enterprise_plan("plant_small");
  const MeasurementEngine engine(cat, stuxnet, options(&serial, 12));
  std::vector<std::size_t> visited;
  std::vector<std::vector<double>> ratios(plan.cell_count());
  const auto summaries = engine.measure_scenarios(
      plan, [&](std::size_t cell, std::span<const IndicatorSample> samples) {
        visited.push_back(cell);
        for (const auto& s : samples) ratios[cell].push_back(s.final_ratio);
      });
  EXPECT_EQ(visited, (std::vector<std::size_t>{0, 1}));
  for (std::size_t c = 0; c < plan.cell_count(); ++c) {
    EXPECT_EQ(summaries[c].replications, 12u);
    ASSERT_EQ(ratios[c].size(), 12u);
    // Replication r of cell c is the (seed, r) stream: recompute one.
    const attack::CampaignSimulator sim(plan.cells[c].scenario, stuxnet, cat);
    stats::Rng rng(plan.cells[c].seed, 5);
    const auto r = sim.run(rng);
    EXPECT_EQ(ratios[c][5],
              static_cast<double>(r.hosts_compromised + r.plcs_compromised) /
                  static_cast<double>(plan.cells[c].scenario.topology.node_count()));
  }
}

}  // namespace
}  // namespace divsec::core
