// Tests for src/scenario/ — fleet topology generation, scenario building
// and the named preset registry. The load-bearing property is
// determinism: same preset + same seed must reproduce the topology and
// the software assignment bit for bit, because the measurement engine's
// reproducibility contract extends through scenario generation.
#include <gtest/gtest.h>

#include <vector>

#include "scenario/presets.h"
#include "scenario/scenario_builder.h"
#include "scenario/topology_generator.h"

namespace divsec::scenario {
namespace {

using net::NodeId;
using net::Role;
using net::Zone;

void expect_identical_topology(const net::Topology& a, const net::Topology& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.link_count(), b.link_count());
  for (NodeId i = 0; i < a.node_count(); ++i) {
    EXPECT_EQ(a.node(i).name, b.node(i).name) << "node " << i;
    EXPECT_EQ(a.node(i).zone, b.node(i).zone) << "node " << i;
    EXPECT_EQ(a.node(i).role, b.node(i).role) << "node " << i;
    EXPECT_EQ(a.node(i).usb_exposure, b.node(i).usb_exposure) << "node " << i;
  }
  for (std::size_t l = 0; l < a.link_count(); ++l) {
    EXPECT_EQ(a.links()[l].a, b.links()[l].a) << "link " << l;
    EXPECT_EQ(a.links()[l].b, b.links()[l].b) << "link " << l;
  }
}

void expect_identical_software(const attack::Scenario& a, const attack::Scenario& b) {
  ASSERT_EQ(a.software.size(), b.software.size());
  for (std::size_t i = 0; i < a.software.size(); ++i) {
    EXPECT_EQ(a.software[i].os, b.software[i].os) << "node " << i;
    EXPECT_EQ(a.software[i].protocol, b.software[i].protocol) << "node " << i;
    EXPECT_EQ(a.software[i].plc_firmware, b.software[i].plc_firmware) << "node " << i;
    EXPECT_EQ(a.software[i].hmi, b.software[i].hmi) << "node " << i;
    EXPECT_EQ(a.software[i].historian, b.software[i].historian) << "node " << i;
  }
  EXPECT_EQ(a.firewall_variant, b.firewall_variant);
  EXPECT_EQ(a.entry_nodes, b.entry_nodes);
  EXPECT_EQ(a.target_plcs, b.target_plcs);
}

TEST(FleetSpec, NodeCountArithmetic) {
  FleetSpec spec;
  spec.corporate_workstations = 4;
  spec.corporate_servers = 1;
  spec.dmz_historians = 1;
  spec.control_sites = 2;
  spec.hmis_per_site = 1;
  spec.historians_per_site = 1;
  spec.plc_cells_per_site = 2;
  spec.plcs_per_cell = 3;
  spec.sensor_gateways_per_site = 1;
  EXPECT_EQ(spec.nodes_per_site(), 2u + 1u + 1u + 6u + 1u);
  EXPECT_EQ(spec.node_count(), 4u + 1u + 1u + 2u * 11u);
}

TEST(FleetSpec, ValidationCatchesBadFields) {
  FleetSpec spec;
  spec.control_sites = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = FleetSpec{};
  spec.workstation_usb_fraction = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = FleetSpec{};
  spec.plcs_per_cell = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(TopologyGenerator, GeneratedFleetMatchesSpecAndIsDeterministic) {
  const FleetSpec spec = enterprise_spec(256);
  const TopologyGenerator gen(spec);
  const net::Topology a = gen.generate(11);
  const net::Topology b = gen.generate(11);
  EXPECT_EQ(a.node_count(), 256u);
  expect_identical_topology(a, b);

  // Role census matches the spec.
  EXPECT_EQ(a.nodes_with_role(Role::kScadaServer).size(), spec.control_sites);
  EXPECT_EQ(a.nodes_with_role(Role::kEngineering).size(), spec.control_sites);
  EXPECT_EQ(a.nodes_with_role(Role::kPlc).size(),
            spec.control_sites * spec.plc_cells_per_site * spec.plcs_per_cell);
  EXPECT_EQ(a.nodes_with_role(Role::kWorkstation).size(),
            spec.corporate_workstations);
  EXPECT_EQ(a.nodes_in_zone(Zone::kDmz).size(), spec.dmz_historians);

  // A different seed rewires the fleet (same census, different links).
  const net::Topology c = gen.generate(12);
  ASSERT_EQ(c.node_count(), a.node_count());
  bool differs = c.link_count() != a.link_count();
  for (std::size_t l = 0; !differs && l < a.link_count(); ++l)
    differs = a.links()[l].a != c.links()[l].a || a.links()[l].b != c.links()[l].b;
  EXPECT_TRUE(differs);
}

TEST(TopologyGenerator, DeliveryChannelAlwaysExists) {
  // Even with a zero USB fraction, one workstation and every engineering
  // station carry removable media: the paper's entry stage never dies.
  FleetSpec spec = enterprise_spec(64);
  spec.workstation_usb_fraction = 0.0;
  const net::Topology t = TopologyGenerator(spec).generate(3);
  std::size_t usb_nodes = 0;
  for (NodeId i = 0; i < t.node_count(); ++i)
    if (t.node(i).usb_exposure) ++usb_nodes;
  EXPECT_EQ(usb_nodes, 1u + spec.control_sites);
}

TEST(PresetRegistry, NamesAndLookup) {
  const auto names = preset_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "paper_two_machines"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "enterprise{N}"), names.end());
  EXPECT_TRUE(has_preset("scope_cooling"));
  EXPECT_TRUE(has_preset("plant_small"));
  EXPECT_TRUE(has_preset("enterprise64"));
  EXPECT_TRUE(has_preset("enterprise1024"));
  EXPECT_FALSE(has_preset("enterprise16"));  // below kMinEnterpriseNodes
  EXPECT_FALSE(has_preset("enterprise12x"));
  EXPECT_FALSE(has_preset("campus"));

  // Family specs are preset names too (family_spec.h).
  EXPECT_TRUE(has_preset("brownfield"));
  EXPECT_TRUE(has_preset("purdue-deep:nodes=128,depth=3"));
  EXPECT_FALSE(has_preset("purdue-deep:nodes=2"));  // below kMinFamilyNodes

  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  EXPECT_THROW(make_preset("campus", cat, 1), std::out_of_range);
  EXPECT_THROW(make_preset("enterprise16", cat, 1), std::invalid_argument);

  // The unknown-preset message lists presets and families by name.
  try {
    (void)make_preset("campus", cat, 1);
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("paper_two_machines"), std::string::npos);
    EXPECT_NE(what.find("hub-spoke"), std::string::npos);
  }
}

TEST(PresetRegistry, EnterpriseSizeIsCappedByName) {
  // N above kMaxFamilyNodes is rejected by the name rule itself, naming
  // the cap, before any topology is allocated; the cap is accepted.
  const std::string cap = "enterprise" + std::to_string(kMaxFamilyNodes);
  const std::string over = "enterprise" + std::to_string(kMaxFamilyNodes + 1);
  EXPECT_TRUE(has_preset(cap));
  EXPECT_EQ(resolve_preset_name(cap), cap);
  EXPECT_EQ(enterprise_spec(kMaxFamilyNodes).node_count(), kMaxFamilyNodes);
  EXPECT_FALSE(has_preset(over));
  EXPECT_FALSE(has_preset("enterprise99999999999"));
  EXPECT_THROW((void)enterprise_spec(kMaxFamilyNodes + 1), std::invalid_argument);
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  for (const std::string& name : {over, std::string("enterprise99999999999")}) {
    try {
      (void)resolve_preset_name(name);
      FAIL() << name << ": expected invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("must be <= 1048576"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(make_preset(name, cat, 1), std::invalid_argument) << name;
  }
}

TEST(PresetRegistry, FamilyPresetsExpandDeterministically) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const GeneratedScenario a = make_preset("mesh-flat:nodes=64", cat, 9);
  const GeneratedScenario b = make_preset("mesh-flat:nodes=64", cat, 9);
  expect_identical_topology(a.scenario.topology, b.scenario.topology);
  expect_identical_software(a.scenario, b.scenario);
  EXPECT_EQ(a.scenario.topology.node_count(), 64u);
  // The scenario label is the canonical spelling, so sweep states and
  // reports agree on one name per spec.
  EXPECT_EQ(a.name, FamilySpec::parse("mesh-flat:nodes=64").canonical());
}

TEST(PresetRegistry, EnterpriseSpecHitsExactNodeCounts) {
  for (const std::size_t n : {24u, 64u, 100u, 256u, 1024u}) {
    EXPECT_EQ(enterprise_spec(n).node_count(), n) << "enterprise" << n;
  }
}

TEST(PresetRegistry, PaperTwoMachinesIsTheMinimalRig) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const GeneratedScenario rig = make_preset("paper_two_machines", cat, 5);
  EXPECT_EQ(rig.scenario.topology.node_count(), 2u);
  EXPECT_EQ(rig.scenario.entry_nodes.size(), 1u);
  EXPECT_EQ(rig.scenario.target_plcs.size(), 1u);
  EXPECT_NO_THROW(rig.scenario.validate(cat));
  // No HMI / historian / corporate components on a two-machine rig.
  for (const auto& comp : rig.components) {
    EXPECT_NE(comp.name, "hmi.software");
    EXPECT_NE(comp.name, "historian.db");
    EXPECT_NE(comp.name, "os.corporate");
  }
  // It still runs a campaign end to end.
  const attack::CampaignSimulator sim(rig.scenario,
                                      attack::ThreatProfile::stuxnet(), cat);
  stats::Rng rng(1);
  const auto result = sim.run(rng);
  EXPECT_GE(result.compromised_ratio.size(), 1u);
}

TEST(PresetRegistry, ScopeCoolingPresetMatchesCuratedDescription) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const GeneratedScenario preset = make_preset("scope_cooling", cat, 9);
  const core::SystemDescription curated = core::make_scope_description(cat);
  expect_identical_topology(preset.scenario.topology, curated.baseline().topology);
  expect_identical_software(preset.scenario, curated.baseline());
  ASSERT_EQ(preset.components.size(), curated.components().size());
  for (std::size_t i = 0; i < preset.components.size(); ++i)
    EXPECT_EQ(preset.components[i].name, curated.components()[i].name);
}

TEST(PresetRegistry, GeneratedPresetIsDeterministicInSeed) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const GeneratedScenario a =
      make_preset("enterprise256", cat, 42, VariantPolicy::kRandomPerNode);
  const GeneratedScenario b =
      make_preset("enterprise256", cat, 42, VariantPolicy::kRandomPerNode);
  expect_identical_topology(a.scenario.topology, b.scenario.topology);
  expect_identical_software(a.scenario, b.scenario);

  // Another seed changes the variant assignment somewhere.
  const GeneratedScenario c =
      make_preset("enterprise256", cat, 43, VariantPolicy::kRandomPerNode);
  bool differs = false;
  for (std::size_t i = 0; !differs && i < a.scenario.software.size(); ++i)
    differs = a.scenario.software[i].os != c.scenario.software[i].os;
  EXPECT_TRUE(differs);
}

TEST(PresetRegistry, ArmsEqualSingleArmBuildsAndShareOneTopology) {
  // make_preset_arms generates once; each arm must still equal the
  // make_preset call for its policy, which generates on its own.
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const VariantPolicy policies[] = {VariantPolicy::kRandomPerNode,
                                    VariantPolicy::kMonoculture,
                                    VariantPolicy::kBalancedRotation};
  for (const char* preset : {"enterprise64", "scope_cooling", "brownfield:nodes=96"}) {
    SCOPED_TRACE(preset);
    const std::vector<GeneratedScenario> arms =
        make_preset_arms(preset, cat, 11, policies);
    ASSERT_EQ(arms.size(), 3u);
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const GeneratedScenario alone = make_preset(preset, cat, 11, policies[i]);
      EXPECT_EQ(arms[i].name, alone.name);
      expect_identical_topology(arms[i].scenario.topology, alone.scenario.topology);
      expect_identical_software(arms[i].scenario, alone.scenario);
      ASSERT_EQ(arms[i].components.size(), alone.components.size());
      for (std::size_t k = 0; k < alone.components.size(); ++k)
        EXPECT_EQ(arms[i].components[k].nodes, alone.components[k].nodes);
      EXPECT_EQ(arms[i].scenario.topology.identity(),
                arms[0].scenario.topology.identity());
    }
  }
  EXPECT_TRUE(make_preset_arms("enterprise64", cat, 11, {}).empty());
  EXPECT_THROW((void)make_preset_arms("campus", cat, 1, policies), std::out_of_range);
}

TEST(ScenarioBuilderPolicies, MonocultureStratifiedAndRandomDiffer) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const GeneratedScenario mono =
      make_preset("enterprise64", cat, 8, VariantPolicy::kMonoculture);
  const GeneratedScenario strat =
      make_preset("enterprise64", cat, 8, VariantPolicy::kZoneStratified);
  const GeneratedScenario rand =
      make_preset("enterprise64", cat, 8, VariantPolicy::kRandomPerNode);

  // Monoculture: baseline everywhere.
  for (const auto& sw : mono.scenario.software) {
    EXPECT_EQ(sw.os, 0u);
    EXPECT_EQ(sw.protocol, 0u);
  }
  EXPECT_EQ(mono.scenario.firewall_variant, 0u);

  // Zone-stratified: one OS variant per zone.
  const auto& topo = strat.scenario.topology;
  std::array<std::optional<std::size_t>, net::kZoneCount> zone_os;
  for (NodeId i = 0; i < topo.node_count(); ++i) {
    auto& expected = zone_os[static_cast<std::size_t>(topo.node(i).zone)];
    if (!expected) expected = strat.scenario.software[i].os;
    EXPECT_EQ(strat.scenario.software[i].os, *expected) << "node " << i;
  }

  // Random-per-node: some OS heterogeneity inside a single zone (the
  // corporate zone of enterprise64 has dozens of draws over >= 2 levels).
  const auto& rtopo = rand.scenario.topology;
  std::optional<std::size_t> first;
  bool hetero = false;
  for (NodeId i = 0; i < rtopo.node_count() && !hetero; ++i) {
    if (rtopo.node(i).zone != Zone::kCorporate) continue;
    if (!first)
      first = rand.scenario.software[i].os;
    else
      hetero = rand.scenario.software[i].os != *first;
  }
  EXPECT_TRUE(hetero);
}

TEST(ScenarioBuilderOptions, DescriptionSpansEveryPlc) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const FleetSpec spec = enterprise_spec(64);
  const net::Topology topo = TopologyGenerator(spec).generate(5);
  const std::size_t all_plcs = topo.nodes_with_role(Role::kPlc).size();
  ASSERT_GT(all_plcs, 3u);

  // Every PLC is a sabotage target, and the DoE view spans every PLC and
  // builds a SystemDescription.
  const GeneratedScenario built = ScenarioBuilder(topo, cat).build("fleet", 5);
  EXPECT_EQ(built.scenario.target_plcs, topo.nodes_with_role(Role::kPlc));
  const core::SystemDescription desc = built.make_description(cat);
  for (const auto& comp : desc.components())
    if (comp.name == "plc.firmware") {
      EXPECT_EQ(comp.nodes.size(), all_plcs);
    }
  EXPECT_NO_THROW(desc.validate(desc.baseline_configuration()));
  EXPECT_EQ(desc.factor_space().factor_count(), desc.components().size());
}

}  // namespace
}  // namespace divsec::scenario
