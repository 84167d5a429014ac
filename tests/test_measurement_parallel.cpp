// Tests for core/measurement.h — the batched parallel measurement engine.
//
// The engine's contract: job (cell, rep) draws from Rng(cell.seed, rep),
// so multi-threaded measurement is bit-identical to the serial path for
// both measurement engines.
#include <gtest/gtest.h>

#include <vector>

#include "core/measurement.h"
#include "core/pipeline.h"
#include "sim/executor.h"

namespace divsec::core {
namespace {

void expect_bit_identical(const IndicatorSummary& a, const IndicatorSummary& b) {
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.horizon_hours, b.horizon_hours);
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
  EXPECT_EQ(a.ttsf_event.q90, b.ttsf_event.q90);
  EXPECT_EQ(a.ratio_curve, b.ratio_curve);
}

void expect_same_samples(const std::vector<IndicatorSample>& a,
                         const std::vector<IndicatorSample>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tta, b[i].tta) << "rep " << i;
    EXPECT_EQ(a[i].tta_censored, b[i].tta_censored) << "rep " << i;
    EXPECT_EQ(a[i].ttsf, b[i].ttsf) << "rep " << i;
    EXPECT_EQ(a[i].ttsf_censored, b[i].ttsf_censored) << "rep " << i;
    EXPECT_EQ(a[i].attack_succeeded, b[i].attack_succeeded) << "rep " << i;
    EXPECT_EQ(a[i].final_ratio, b[i].final_ratio) << "rep " << i;
    EXPECT_EQ(a[i].ratio_counts, b[i].ratio_counts) << "rep " << i;
  }
}

/// The baseline configuration's summary (as measure_indicators seeds
/// it), with its samples captured through the engine's cell visitor.
IndicatorSummary measure_with_samples(const SystemDescription& desc,
                                      const attack::ThreatProfile& profile,
                                      const MeasurementOptions& mo,
                                      std::vector<IndicatorSample>& samples) {
  const ScenarioSweepPlan plan{
      {{desc.instantiate(desc.baseline_configuration()), mo.seed}}};
  return MeasurementEngine(desc.catalog(), profile, mo)
      .measure_scenarios(plan,
                         [&samples](std::size_t, std::span<const IndicatorSample> s) {
                           samples.assign(s.begin(), s.end());
                         })
      .front();
}

class MeasurementParallelFixture : public ::testing::Test {
 protected:
  MeasurementParallelFixture() : desc(make_scope_description(cat)) {}

  [[nodiscard]] MeasurementOptions options(Engine engine, std::size_t reps,
                                           const sim::Executor* ex) const {
    MeasurementOptions mo;
    mo.engine = engine;
    mo.replications = reps;
    mo.seed = 2013;
    mo.executor = ex;
    return mo;
  }

  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  SystemDescription desc;
  sim::Executor serial{1};
  sim::Executor threaded{4};  // the DIVSEC_THREADS=4 configuration
};

TEST_F(MeasurementParallelFixture, StagedSanFactorialBitIdenticalAcrossThreads) {
  const attack::ThreatProfile profile = attack::ThreatProfile::stuxnet();
  PipelineOptions serial_opts;
  serial_opts.measurement = options(Engine::kStagedSan, 120, &serial);
  PipelineOptions parallel_opts;
  parallel_opts.measurement = options(Engine::kStagedSan, 120, &threaded);

  const Pipeline serial_pipeline(desc, profile, serial_opts);
  const Pipeline parallel_pipeline(desc, profile, parallel_opts);
  const auto a = serial_pipeline.measure_full_factorial({"os.control", "plc.firmware"}, 2);
  const auto b =
      parallel_pipeline.measure_full_factorial({"os.control", "plc.firmware"}, 2);

  ASSERT_EQ(a.configuration_count(), b.configuration_count());
  for (std::size_t c = 0; c < a.configuration_count(); ++c) {
    EXPECT_EQ(a.configurations[c].variant, b.configurations[c].variant);
    expect_bit_identical(a.summaries[c], b.summaries[c]);
    EXPECT_EQ(a.tta_cells[c], b.tta_cells[c]);
    EXPECT_EQ(a.ttsf_cells[c], b.ttsf_cells[c]);
    EXPECT_EQ(a.success_cells[c], b.success_cells[c]);
  }
}

TEST_F(MeasurementParallelFixture, CampaignFactorialBitIdenticalAcrossThreads) {
  const attack::ThreatProfile profile = attack::ThreatProfile::stuxnet();
  PipelineOptions serial_opts;
  serial_opts.measurement = options(Engine::kCampaign, 40, &serial);
  PipelineOptions parallel_opts;
  parallel_opts.measurement = options(Engine::kCampaign, 40, &threaded);

  const Pipeline serial_pipeline(desc, profile, serial_opts);
  const Pipeline parallel_pipeline(desc, profile, parallel_opts);
  const auto a = serial_pipeline.measure_full_factorial({"plc.firmware", "firewall"}, 2);
  const auto b =
      parallel_pipeline.measure_full_factorial({"plc.firmware", "firewall"}, 2);

  ASSERT_EQ(a.configuration_count(), b.configuration_count());
  for (std::size_t c = 0; c < a.configuration_count(); ++c)
    expect_bit_identical(a.summaries[c], b.summaries[c]);
}

TEST_F(MeasurementParallelFixture, MeasureIndicatorsMatchesEngineForBothEngines) {
  const attack::ThreatProfile profile = attack::ThreatProfile::stuxnet();
  for (const Engine engine : {Engine::kCampaign, Engine::kStagedSan}) {
    const auto serial_summary = measure_indicators(
        desc, desc.baseline_configuration(), profile, options(engine, 50, &serial));
    const auto parallel_summary = measure_indicators(
        desc, desc.baseline_configuration(), profile, options(engine, 50, &threaded));
    expect_bit_identical(serial_summary, parallel_summary);

    std::vector<IndicatorSample> a, b;
    expect_bit_identical(
        serial_summary,
        measure_with_samples(desc, profile, options(engine, 50, &serial), a));
    expect_bit_identical(
        serial_summary,
        measure_with_samples(desc, profile, options(engine, 50, &threaded), b));
    expect_same_samples(a, b);
  }
}

TEST_F(MeasurementParallelFixture, RatioCurveBitIdenticalAcrossThreads) {
  const attack::ThreatProfile profile = attack::ThreatProfile::stuxnet();
  const std::vector<double> grid{0.0, 100.0, 500.0, 1000.0, 2160.0};
  const auto a = mean_compromised_ratio_curve(desc, desc.baseline_configuration(),
                                              profile,
                                              options(Engine::kCampaign, 40, &serial),
                                              grid);
  const auto b = mean_compromised_ratio_curve(desc, desc.baseline_configuration(),
                                              profile,
                                              options(Engine::kCampaign, 40, &threaded),
                                              grid);
  EXPECT_EQ(a, b);  // exact: the reduction folds in replication order
}

TEST_F(MeasurementParallelFixture, SanAfterCampaignOnOneThreadHasNoCurve) {
  // Jobs fill a per-thread sample. A SAN job on the thread that just ran
  // campaign jobs must not inherit their compromised-ratio counts.
  const attack::ThreatProfile profile = attack::ThreatProfile::stuxnet();
  const IndicatorSummary campaign =
      measure_indicators(desc, desc.baseline_configuration(), profile,
                         options(Engine::kCampaign, 20, &serial));
  ASSERT_FALSE(campaign.ratio_curve.empty());

  std::vector<IndicatorSample> samples;
  const IndicatorSummary san = measure_with_samples(
      desc, profile, options(Engine::kStagedSan, 20, &serial), samples);
  EXPECT_TRUE(san.ratio_curve.empty());
  ASSERT_EQ(samples.size(), 20u);
  for (const IndicatorSample& s : samples) {
    EXPECT_TRUE(s.ratio_counts.empty());
    EXPECT_EQ(s.ratio_scale, 0u);
  }
}

TEST_F(MeasurementParallelFixture, VisitorSeesSamplesWithoutChangingSummaries) {
  const attack::ThreatProfile profile = attack::ThreatProfile::stuxnet();
  const MeasurementOptions mo = options(Engine::kStagedSan, 80, &serial);

  std::vector<IndicatorSample> samples;
  const auto visited = measure_with_samples(desc, profile, mo, samples);
  EXPECT_EQ(samples.size(), 80u);
  expect_bit_identical(
      measure_indicators(desc, desc.baseline_configuration(), profile, mo),
      visited);

  // A MeasurementTable gets its per-replicate response cells the same way.
  PipelineOptions po;
  po.measurement = mo;
  const Pipeline p(desc, profile, po);
  const auto table = p.measure_full_factorial({"plc.firmware", "firewall"}, 2);
  for (std::size_t c = 0; c < table.configuration_count(); ++c) {
    EXPECT_EQ(table.tta_cells[c].size(), 80u);
    EXPECT_EQ(table.success_cells[c].size(), 80u);
  }
}

}  // namespace
}  // namespace divsec::core
