#include "scenario/presets.h"

#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "util/strict_text.h"

namespace divsec::scenario {

using net::Role;
using net::Zone;

namespace {

constexpr std::string_view kEnterprisePrefix = "enterprise";

std::string enterprise_cap_message(std::uint64_t n) {
  return "enterprise preset: N must be <= " + std::to_string(kMaxFamilyNodes) +
         ", got " + std::to_string(n);
}

/// N of "enterprise{N}" (N in util::to_u64's grammar); 0 when `name` is
/// not of that form. Throws std::invalid_argument when N is above
/// kMaxFamilyNodes, before anything is built.
std::size_t parse_enterprise(std::string_view name) {
  if (!name.starts_with(kEnterprisePrefix)) return 0;
  const std::uint64_t n =
      util::to_u64(name.substr(kEnterprisePrefix.size())).value_or(0);
  if (n > kMaxFamilyNodes) throw std::invalid_argument(enterprise_cap_message(n));
  return static_cast<std::size_t>(n);
}

/// The one spelling of enterprise{N}: "enterprise0256" is enterprise256.
std::string enterprise_name(std::size_t n) {
  return std::string(kEnterprisePrefix) + std::to_string(n);
}

/// The one spelling of a fixed or enterprise{N} preset name; nullopt
/// when `name` is neither.
std::optional<std::string> canonical_builtin_name(const std::string& name) {
  if (name == "paper_two_machines" || name == "scope_cooling" ||
      name == "plant_small" || name == "plant_medium")
    return name;
  if (const std::size_t n = parse_enterprise(name); n >= kMinEnterpriseNodes)
    return enterprise_name(n);
  return std::nullopt;
}

net::Topology two_machine_topology() {
  // The paper's minimal rig: an engineering workstation (USB-exposed,
  // where the worm lands) programming one PLC.
  net::Topology t;
  const auto eng = t.add_node("rig.eng", Zone::kControl, Role::kEngineering, true);
  const auto plc = t.add_node("rig.plc", Zone::kField, Role::kPlc, false);
  t.connect(eng, plc);
  return t;
}

FleetSpec plant_small_spec() {
  FleetSpec spec;
  spec.corporate_workstations = 4;
  spec.corporate_servers = 1;
  spec.dmz_historians = 1;
  spec.control_sites = 1;
  spec.hmis_per_site = 1;
  spec.historians_per_site = 1;
  spec.plc_cells_per_site = 2;
  spec.plcs_per_cell = 2;
  spec.sensor_gateways_per_site = 1;
  return spec;  // 15 nodes
}

/// The unknown-preset message: every fixed preset, the enterprise
/// template and every family name, so a typo at the CLI reads as a menu
/// rather than a dead end.
std::string unknown_preset_message(const std::string& name) {
  std::string msg = "make_preset: unknown preset '" + name + "' (presets: ";
  const auto presets = preset_names();
  for (std::size_t i = 0; i < presets.size(); ++i) {
    if (i) msg += ", ";
    msg += presets[i];
  }
  msg += "; families: ";
  const auto families = family_names();
  for (std::size_t i = 0; i < families.size(); ++i) {
    if (i) msg += ", ";
    msg += families[i];
  }
  msg += ")";
  return msg;
}

FleetSpec plant_medium_spec() {
  FleetSpec spec;
  spec.corporate_workstations = 12;
  spec.corporate_servers = 2;
  spec.dmz_historians = 2;
  spec.control_sites = 2;
  spec.hmis_per_site = 2;
  spec.historians_per_site = 1;
  spec.plc_cells_per_site = 3;
  spec.plcs_per_cell = 4;
  spec.sensor_gateways_per_site = 2;
  return spec;  // 54 nodes
}

}  // namespace

FleetSpec enterprise_spec(std::size_t total_nodes) {
  if (total_nodes < kMinEnterpriseNodes)
    throw std::invalid_argument("enterprise preset needs >= " +
                                std::to_string(kMinEnterpriseNodes) + " nodes");
  if (total_nodes > kMaxFamilyNodes)
    throw std::invalid_argument(enterprise_cap_message(total_nodes));
  FleetSpec spec;
  spec.control_sites = std::max<std::size_t>(1, total_nodes / 32);
  spec.hmis_per_site = 2;
  spec.historians_per_site = 1;
  spec.plc_cells_per_site = 2;
  spec.plcs_per_cell = 4;
  spec.sensor_gateways_per_site = 1;
  spec.corporate_servers = std::max<std::size_t>(1, total_nodes / 64);
  spec.dmz_historians = std::max<std::size_t>(1, spec.control_sites / 4);
  const std::size_t fixed = spec.control_sites * spec.nodes_per_site() +
                            spec.corporate_servers + spec.dmz_historians;
  if (fixed + 1 > total_nodes)
    throw std::invalid_argument("enterprise preset: node budget too small");
  spec.corporate_workstations = total_nodes - fixed;
  return spec;
}

std::vector<std::string> preset_names() {
  return {"paper_two_machines", "scope_cooling", "plant_small", "plant_medium",
          "enterprise{N}"};
}

std::string resolve_preset_name(const std::string& name) {
  if (FamilySpec::is_family_name(name)) return FamilySpec::parse(name).canonical();
  if (std::optional<std::string> canonical = canonical_builtin_name(name))
    return *std::move(canonical);
  throw std::out_of_range(unknown_preset_message(name));
}

std::vector<GeneratedScenario> make_preset_arms(
    const std::string& name, const divers::VariantCatalog& catalog,
    std::uint64_t seed, std::span<const VariantPolicy> policies) {
  std::vector<GeneratedScenario> arms;
  arms.reserve(policies.size());
  // Every arm copies the one topology value, so all arms share its
  // storage (and the measurement engine one reachability index). With
  // `curated`, the monoculture arm is the curated case-study description
  // instead: hand-picked component grouping over the same plant,
  // all-baseline variants.
  const auto build_arms = [&](const net::Topology& topology,
                              const std::string& label,
                              const core::SystemDescription* curated = nullptr) {
    for (const VariantPolicy policy : policies) {
      if (curated && policy == VariantPolicy::kMonoculture)
        arms.push_back({label, curated->baseline(), curated->components()});
      else
        arms.push_back(ScenarioBuilder(topology, catalog)
                           .variant_policy(policy)
                           .build(label, seed));
    }
  };
  if (name == "paper_two_machines") {
    build_arms(two_machine_topology(), name);
  } else if (name == "scope_cooling") {
    const core::SystemDescription desc = core::make_scope_description(catalog);
    build_arms(desc.baseline().topology, name, &desc);
  } else if (FamilySpec::is_family_name(name)) {
    // Build under the canonical spelling so re-expansion from a shard's
    // recorded name reproduces the same scenario label bit-for-bit.
    const FamilySpec fspec = FamilySpec::parse(name);
    build_arms(TopologyGenerator(fspec).generate(seed), fspec.canonical());
  } else if (name == "plant_small") {
    build_arms(TopologyGenerator(plant_small_spec()).generate(seed), name);
  } else if (name == "plant_medium") {
    build_arms(TopologyGenerator(plant_medium_spec()).generate(seed), name);
  } else if (const std::size_t n = parse_enterprise(name); n > 0) {
    build_arms(TopologyGenerator(enterprise_spec(n)).generate(seed),
               enterprise_name(n));
  } else {
    throw std::out_of_range(unknown_preset_message(name));
  }
  return arms;
}

GeneratedScenario make_preset(const std::string& name,
                              const divers::VariantCatalog& catalog,
                              std::uint64_t seed, VariantPolicy policy) {
  return std::move(make_preset_arms(name, catalog, seed, {&policy, 1}).front());
}

}  // namespace divsec::scenario
