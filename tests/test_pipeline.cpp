// Tests for core/pipeline.h — the paper's three-step approach end to end.
#include <gtest/gtest.h>

#include "core/pipeline.h"

namespace divsec::core {
namespace {

class PipelineFixture : public ::testing::Test {
 protected:
  PipelineFixture() : desc(make_scope_description(cat)) {
    opts.measurement.engine = Engine::kStagedSan;
    opts.measurement.replications = 150;
    opts.measurement.seed = 2013;
  }
  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  SystemDescription desc;
  PipelineOptions opts;
};

TEST_F(PipelineFixture, FullFactorialTableShape) {
  const Pipeline p(desc, attack::ThreatProfile::stuxnet(), opts);
  const auto table = p.measure_full_factorial({"plc.firmware", "firewall"}, 2);
  EXPECT_EQ(table.space.factor_count(), 2u);
  EXPECT_EQ(table.configuration_count(), 4u);
  EXPECT_EQ(table.summaries.size(), 4u);
  EXPECT_EQ(table.tta_cells.size(), 4u);
  for (const auto& cell : table.tta_cells)
    EXPECT_EQ(cell.size(), opts.measurement.replications);
  // Cell order follows FactorSpace::decode: factor 0 (plc) fastest.
  EXPECT_EQ(table.configurations[0].variant, desc.baseline_configuration().variant);
  EXPECT_EQ(table.configurations[1].variant[2], 1u);  // plc level 1
  EXPECT_EQ(table.configurations[2].variant[4], 1u);  // firewall level 1
}

TEST_F(PipelineFixture, UnknownComponentRejected) {
  const Pipeline p(desc, attack::ThreatProfile::stuxnet(), opts);
  EXPECT_THROW(p.measure_full_factorial({"nope"}), std::invalid_argument);
  EXPECT_THROW(p.measure_full_factorial({}), std::invalid_argument);
}

TEST_F(PipelineFixture, AttackModelStepMatchesDerivation) {
  const Pipeline p(desc, attack::ThreatProfile::stuxnet(), opts);
  const auto m = p.attack_model(desc.baseline_configuration());
  const auto direct =
      derive_staged_model(cat, desc.instantiate(desc.baseline_configuration()),
                          attack::ThreatProfile::stuxnet(), opts.measurement.detection);
  for (std::size_t i = 0; i < attack::kStageCount; ++i) {
    EXPECT_DOUBLE_EQ(m.transitions[i].success_probability,
                     direct.transitions[i].success_probability);
  }
}

TEST_F(PipelineFixture, AssessmentAllocatesVarianceToThePlcFirmware) {
  // Against Stuxnet, the PLC payload is the choke point: the ANOVA must
  // put the dominant variance share on plc.firmware — the paper's
  // "components valuable to diversify".
  // Sweep ALL variant levels (2-level truncation would hide the abb PLC,
  // the variant that actually blocks the payload).
  const Pipeline p(desc, attack::ThreatProfile::stuxnet(), opts);
  const auto result = p.run({"os.control", "plc.firmware", "historian.db"}, 0);
  const auto& ranking = result.assessment.ranking;
  ASSERT_FALSE(ranking.empty());
  // The attack-path components dominate; the historian is off-path noise.
  EXPECT_TRUE(ranking[0].name == "plc.firmware" || ranking[0].name == "os.control")
      << ranking[0].name;
  double plc_eta = 0.0, hist_eta = 0.0;
  for (const auto& e : ranking) {
    if (e.name == "plc.firmware") plc_eta = e.eta_squared;
    if (e.name == "historian.db") hist_eta = e.eta_squared;
  }
  EXPECT_GT(plc_eta, 5.0 * hist_eta);
  // And the PLC firmware must be recommended for diversification.
  const auto& rec = result.assessment.recommended;
  EXPECT_NE(std::find(rec.begin(), rec.end(), "plc.firmware"), rec.end());
  EXPECT_EQ(std::find(rec.begin(), rec.end(), "historian.db"), rec.end());
}

TEST_F(PipelineFixture, ReportIsPrintable) {
  const Pipeline p(desc, attack::ThreatProfile::stuxnet(), opts);
  const auto result = p.run({"plc.firmware", "firewall"}, 2);
  const std::string& r = result.assessment.report;
  EXPECT_NE(r.find("ANOVA"), std::string::npos);
  EXPECT_NE(r.find("plc.firmware"), std::string::npos);
  EXPECT_NE(r.find("Recommended"), std::string::npos);
}

TEST_F(PipelineFixture, AnovaTablesAreInternallyConsistent) {
  const Pipeline p(desc, attack::ThreatProfile::stuxnet(), opts);
  const auto result = p.run({"plc.firmware", "firewall"}, 2);
  for (const auto* t : {&result.assessment.tta_anova,
                        &result.assessment.ttsf_anova,
                        &result.assessment.success_anova}) {
    double ss = t->error.ss;
    for (const auto& e : t->effects) ss += e.ss;
    EXPECT_NEAR(ss, t->total.ss, 1e-6 * (1.0 + t->total.ss));
    for (const auto& e : t->effects) {
      EXPECT_GE(e.eta_squared, 0.0);
      EXPECT_LE(e.eta_squared, 1.0);
      EXPECT_GE(e.p_value, 0.0);
      EXPECT_LE(e.p_value, 1.0);
    }
  }
}

TEST_F(PipelineFixture, ScreeningRunsPlackettBurmanOverAllComponents) {
  PipelineOptions fast = opts;
  fast.measurement.replications = 60;
  const Pipeline p(desc, attack::ThreatProfile::stuxnet(), fast);
  const auto s = p.screen();
  EXPECT_EQ(s.design.factor_count(), desc.component_count());
  EXPECT_EQ(s.design.run_count(), 8u);  // 7 factors -> PB8
  EXPECT_EQ(s.mean_tta.size(), 8u);
  EXPECT_EQ(s.success_prob.size(), 8u);
  ASSERT_EQ(s.success_effects.size(), 7u);
  // Screening must agree on the headline: diversifying the PLC firmware
  // (factor index 2) reduces success probability (negative main effect)
  // and it should be the largest-magnitude effect.
  double max_abs = 0.0;
  std::size_t argmax = 0;
  for (std::size_t f = 0; f < s.success_effects.size(); ++f) {
    if (std::abs(s.success_effects[f]) > max_abs) {
      max_abs = std::abs(s.success_effects[f]);
      argmax = f;
    }
  }
  EXPECT_EQ(argmax, 2u);
  EXPECT_LT(s.success_effects[2], 0.0);
}

TEST_F(PipelineFixture, FractionalFactorialHalvesTheRunsAndKeepsTheSignal) {
  PipelineOptions fast = opts;
  fast.measurement.replications = 200;
  const Pipeline p(desc, attack::ThreatProfile::stuxnet(), fast);
  // 2^(4-1) resolution-IV design: plc.firmware = os.corporate * os.control
  // * firewall. 8 runs instead of 16.
  const auto frac = p.measure_fractional(
      {"os.corporate", "os.control", "firewall"},
      {{"plc.firmware", "ABC"}});
  EXPECT_EQ(frac.design.run_count(), 8u);
  EXPECT_EQ(frac.design.factor_count(), 4u);
  EXPECT_EQ(frac.aliases.resolution, 4);
  ASSERT_EQ(frac.success_effects.size(), 4u);
  // Upgrading any on-path component reduces success: negative effects for
  // the OS components and the PLC firmware.
  EXPECT_LT(frac.success_effects[0], 0.0);  // os.corporate
  EXPECT_LT(frac.success_effects[1], 0.0);  // os.control
  EXPECT_LT(frac.success_effects[3], 0.0);  // plc.firmware (generated)
  // plc.firmware (D) is aliased with ABC, nothing shorter: the defining
  // relation is I = ABCD alone.
  EXPECT_EQ(frac.aliases.defining_relation, std::vector<std::string>{"ABCD"});
}

TEST_F(PipelineFixture, FractionalRejectsUnknownComponents) {
  const Pipeline p(desc, attack::ThreatProfile::stuxnet(), opts);
  EXPECT_THROW(p.measure_fractional({"nope", "os.control", "firewall"},
                                    {{"plc.firmware", "ABC"}}),
               std::invalid_argument);
  EXPECT_THROW(p.measure_fractional({"os.corporate", "os.control", "firewall"},
                                    {{"nope", "ABC"}}),
               std::invalid_argument);
}

TEST_F(PipelineFixture, MeasurementTablesAreDeterministic) {
  const Pipeline p(desc, attack::ThreatProfile::stuxnet(), opts);
  const auto a = p.measure_full_factorial({"plc.firmware"}, 2);
  const auto b = p.measure_full_factorial({"plc.firmware"}, 2);
  for (std::size_t c = 0; c < a.configuration_count(); ++c)
    EXPECT_EQ(a.tta_cells[c], b.tta_cells[c]);
}

TEST_F(PipelineFixture, OptionsValidation) {
  PipelineOptions bad = opts;
  bad.measurement.replications = 1;
  EXPECT_THROW(Pipeline(desc, attack::ThreatProfile::stuxnet(), bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace divsec::core
