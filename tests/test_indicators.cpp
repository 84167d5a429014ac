// Tests for core/indicators.h — staged-model derivation and measurement
// engines.
#include <gtest/gtest.h>

#include "core/indicators.h"
#include "core/measurement.h"

namespace divsec::core {
namespace {

class IndicatorsFixture : public ::testing::Test {
 protected:
  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  SystemDescription desc = make_scope_description(cat);
  attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  attack::DetectionModel det{};
};

TEST_F(IndicatorsFixture, DerivedModelValidatesAndReflectsMonoculture) {
  const attack::Scenario sc = desc.instantiate(desc.baseline_configuration());
  const auto m = derive_staged_model(cat, sc, stuxnet, det);
  EXPECT_NO_THROW(m.validate());
  // Monoculture: the zero-days land nearly at full strength.
  EXPECT_GT(m.transitions[0].success_probability, 0.7);
  EXPECT_GT(m.transitions[3].success_probability, 0.5);
  EXPECT_GT(m.impairment_detection_rate, 0.0);
}

TEST_F(IndicatorsFixture, ResilientPlcLowersPayloadStage) {
  Configuration c = desc.baseline_configuration();
  const auto base = derive_staged_model(cat, desc.instantiate(c), stuxnet, det);
  c.variant[2] = cat.count(divers::ComponentKind::kPlcFirmware) - 1;  // abb
  const auto hard = derive_staged_model(cat, desc.instantiate(c), stuxnet, det);
  EXPECT_LT(hard.transitions[3].success_probability,
            0.2 * base.transitions[3].success_probability);
  // Other stages unchanged.
  EXPECT_DOUBLE_EQ(hard.transitions[0].success_probability,
                   base.transitions[0].success_probability);
}

TEST_F(IndicatorsFixture, DiverseOsSlowsActivationAndRaisesFailureDetection) {
  Configuration c = desc.baseline_configuration();
  const auto base = derive_staged_model(cat, desc.instantiate(c), stuxnet, det);
  c.variant[0] = 2;  // corporate OS -> linux (entry nodes live there)
  c.variant[1] = 2;  // control OS -> linux
  const auto hard = derive_staged_model(cat, desc.instantiate(c), stuxnet, det);
  EXPECT_LT(hard.transitions[0].success_probability,
            base.transitions[0].success_probability);
  // More failures at the same attempt rate => more failure-triggered
  // detection.
  EXPECT_GT(hard.transitions[1].detection_rate, base.transitions[1].detection_rate);
}

TEST_F(IndicatorsFixture, SpoofingSuppressesImpairmentDetection) {
  attack::ThreatProfile naked = stuxnet;
  naked.spoof_effectiveness = 0.0;
  const attack::Scenario sc = desc.instantiate(desc.baseline_configuration());
  const auto with_spoof = derive_staged_model(cat, sc, stuxnet, det);
  const auto without = derive_staged_model(cat, sc, naked, det);
  EXPECT_LT(with_spoof.impairment_detection_rate,
            0.1 * without.impairment_detection_rate);
}

TEST_F(IndicatorsFixture, SanEngineMeasuresAllIndicators) {
  MeasurementOptions mo;
  mo.engine = Engine::kStagedSan;
  mo.replications = 300;
  mo.seed = 7;
  std::vector<IndicatorSample> samples;
  const ScenarioSweepPlan plan{
      {{desc.instantiate(desc.baseline_configuration()), mo.seed}}};
  const auto keep = [&samples](std::size_t, std::span<const IndicatorSample> got) {
    samples.assign(got.begin(), got.end());
  };
  const IndicatorSummary s =
      MeasurementEngine(cat, stuxnet, mo).measure_scenarios(plan, keep).front();
  EXPECT_EQ(s.replications, 300u);
  EXPECT_EQ(samples.size(), 300u);
  EXPECT_EQ(s.tta.count(), 300u);
  EXPECT_GT(s.attack_success_probability(), 0.0);
  EXPECT_LE(s.attack_success_probability(), 1.0);
  // Censored counts match the per-sample flags.
  std::size_t censored = 0;
  for (const auto& smp : samples)
    if (smp.tta_censored) ++censored;
  EXPECT_EQ(censored, s.tta_censored);
  // Censored values sit exactly at the horizon.
  for (const auto& smp : samples) {
    if (smp.tta_censored) {
      EXPECT_DOUBLE_EQ(smp.tta, s.horizon_hours);
    }
    EXPECT_LE(smp.tta, s.horizon_hours);
  }
}

TEST_F(IndicatorsFixture, StagedPlanCellWithoutEntryNodesRejected) {
  // A plan cell reaches the staged-SAN engine without instantiate()'s
  // validation, so the model derivation validates the scenario itself.
  attack::Scenario sc = desc.instantiate(desc.baseline_configuration());
  sc.entry_nodes.clear();
  EXPECT_THROW((void)derive_staged_model(cat, sc, stuxnet, det), std::invalid_argument);
  MeasurementOptions mo;
  mo.engine = Engine::kStagedSan;
  mo.replications = 4;
  const ScenarioSweepPlan plan{{{std::move(sc), 1}}};
  EXPECT_THROW((void)MeasurementEngine(cat, stuxnet, mo).measure_scenarios(plan),
               std::invalid_argument);
}

TEST_F(IndicatorsFixture, CampaignEngineMeasuresRatio) {
  MeasurementOptions mo;
  mo.engine = Engine::kCampaign;
  mo.replications = 60;
  mo.seed = 9;
  const IndicatorSummary s =
      measure_indicators(desc, desc.baseline_configuration(), stuxnet, mo);
  EXPECT_GT(s.final_ratio.mean(), 0.0);
  EXPECT_LE(s.final_ratio.max(), 1.0);
}

TEST_F(IndicatorsFixture, EnginesAgreeOnDiversityDirection) {
  // Both engines must rank monoculture as easier prey than the
  // diversified configuration.
  Configuration diverse = desc.baseline_configuration();
  diverse.variant[1] = 2;
  diverse.variant[2] = 3;
  for (Engine engine : {Engine::kStagedSan, Engine::kCampaign}) {
    MeasurementOptions mo;
    mo.engine = engine;
    mo.replications = engine == Engine::kCampaign ? 100 : 400;
    mo.seed = 11;
    const auto mono =
        measure_indicators(desc, desc.baseline_configuration(), stuxnet, mo);
    const auto div = measure_indicators(desc, diverse, stuxnet, mo);
    EXPECT_GT(mono.attack_success_probability(),
              div.attack_success_probability())
        << "engine " << static_cast<int>(engine);
    EXPECT_LT(mono.tta.mean(), div.tta.mean());
  }
}

TEST_F(IndicatorsFixture, MeasurementIsDeterministic) {
  MeasurementOptions mo;
  mo.engine = Engine::kStagedSan;
  mo.replications = 50;
  mo.seed = 13;
  const auto a = measure_indicators(desc, desc.baseline_configuration(), stuxnet, mo);
  const auto b = measure_indicators(desc, desc.baseline_configuration(), stuxnet, mo);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_DOUBLE_EQ(a.tta.mean(), b.tta.mean());
}

TEST_F(IndicatorsFixture, RatioCurveOnGrid) {
  MeasurementOptions mo;
  mo.engine = Engine::kCampaign;
  mo.replications = 30;
  mo.seed = 15;
  const std::vector<double> grid{0.0, 100.0, 500.0, 1000.0, 2000.0};
  const auto curve = mean_compromised_ratio_curve(
      desc, desc.baseline_configuration(), stuxnet, mo, grid);
  ASSERT_EQ(curve.size(), grid.size());
  EXPECT_DOUBLE_EQ(curve[0], 0.0);
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i], curve[i - 1] - 1e-12);
  // SAN engine cannot produce curves.
  mo.engine = Engine::kStagedSan;
  EXPECT_THROW(mean_compromised_ratio_curve(desc, desc.baseline_configuration(),
                                            stuxnet, mo, grid),
               std::invalid_argument);
}

TEST_F(IndicatorsFixture, ZeroReplicationsRejected) {
  MeasurementOptions mo;
  mo.replications = 0;
  EXPECT_THROW(
      measure_indicators(desc, desc.baseline_configuration(), stuxnet, mo),
      std::invalid_argument);
}

TEST_F(IndicatorsFixture, SurvivalBinsOutsideOneToTheBoundRejected) {
  MeasurementOptions mo;
  mo.replications = 8;
  for (const std::size_t bins : {std::size_t{0}, stats::kMaxSurvivalBins + 1}) {
    mo.survival_bins = bins;
    EXPECT_THROW(
        measure_indicators(desc, desc.baseline_configuration(), stuxnet, mo),
        std::invalid_argument)
        << bins;
  }
  mo.survival_bins = stats::kMaxSurvivalBins;
  EXPECT_EQ(measure_indicators(desc, desc.baseline_configuration(), stuxnet, mo)
                .replications,
            8u);
}

}  // namespace
}  // namespace divsec::core
