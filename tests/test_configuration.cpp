// Tests for core/configuration.h — description, instantiation, metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "core/configuration.h"

namespace divsec::core {
namespace {

using divers::ComponentKind;

class ScopeDescription : public ::testing::Test {
 protected:
  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  SystemDescription desc = make_scope_description(cat);
};

TEST_F(ScopeDescription, HasSevenComponents) {
  EXPECT_EQ(desc.component_count(), 7u);
  // One factor per component with the catalog's level names.
  const auto space = desc.factor_space();
  EXPECT_EQ(space.factor_count(), 7u);
  EXPECT_EQ(space.factor(0).name, "os.corporate");
  EXPECT_EQ(space.factor(0).levels.size(), cat.count(ComponentKind::kOs));
  EXPECT_EQ(space.factor(0).levels[0], "os.win_legacy");
}

TEST_F(ScopeDescription, BaselineConfigurationIsAllZeros) {
  const Configuration c = desc.baseline_configuration();
  EXPECT_EQ(c.variant.size(), 7u);
  for (std::size_t v : c.variant) EXPECT_EQ(v, 0u);
  EXPECT_DOUBLE_EQ(desc.extra_cost(c), 0.0);
}

TEST_F(ScopeDescription, InstantiateAppliesVariantsToBoundNodes) {
  Configuration c = desc.baseline_configuration();
  c.variant[1] = 2;  // os.control -> linux
  c.variant[2] = 3;  // plc.firmware -> abb
  c.variant[4] = 1;  // firewall -> ngfw
  const attack::Scenario sc = desc.instantiate(c);
  const auto& t = sc.topology;
  EXPECT_EQ(sc.software[t.node_by_name("ctl.scada")].os, 2u);
  EXPECT_EQ(sc.software[t.node_by_name("ctl.eng")].os, 2u);
  // Corporate nodes keep the baseline OS.
  EXPECT_EQ(sc.software[t.node_by_name("corp.ws1")].os, 0u);
  EXPECT_EQ(*sc.software[t.node_by_name("fld.plc-chiller")].plc_firmware, 3u);
  EXPECT_EQ(sc.firewall_variant, 1u);
}

TEST_F(ScopeDescription, ExtraCostScalesWithNodeCount) {
  Configuration c = desc.baseline_configuration();
  c.variant[2] = 3;  // plc.abb_ac800 on 2 PLC nodes, cost 2.2 vs 1.0
  EXPECT_NEAR(desc.extra_cost(c), 2.0 * (2.2 - 1.0), 1e-9);
}

TEST_F(ScopeDescription, ValidationErrors) {
  Configuration wrong_arity;
  wrong_arity.variant = {0, 0};
  EXPECT_THROW(desc.validate(wrong_arity), std::invalid_argument);
  Configuration out_of_range = desc.baseline_configuration();
  out_of_range.variant[0] = 99;
  EXPECT_THROW(desc.validate(out_of_range), std::out_of_range);
  EXPECT_THROW(desc.instantiate(out_of_range), std::out_of_range);
}

TEST(SystemDescription, ConstructionValidation) {
  divers::VariantCatalog cat = divers::VariantCatalog::standard(1);
  attack::Scenario sc = attack::make_scope_cooling_scenario();
  EXPECT_THROW(SystemDescription(sc, {}, cat), std::invalid_argument);
  EXPECT_THROW(SystemDescription(
                   sc, {{"", ComponentKind::kOs, {0}}}, cat),
               std::invalid_argument);
  EXPECT_THROW(SystemDescription(
                   sc, {{"os", ComponentKind::kOs, {999}}}, cat),
               std::out_of_range);
  // Node-bound kind with no nodes is rejected.
  EXPECT_THROW(SystemDescription(
                   sc, {{"os", ComponentKind::kOs, {}}}, cat),
               std::invalid_argument);
  // Firewall kind without nodes is fine.
  EXPECT_NO_THROW(SystemDescription(
      sc, {{"fw", ComponentKind::kFirewallFirmware, {}}}, cat));
}

}  // namespace
}  // namespace divsec::core
