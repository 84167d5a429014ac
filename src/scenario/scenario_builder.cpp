#include "scenario/scenario_builder.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "stats/rng.h"

namespace divsec::scenario {

using divers::ComponentKind;
using net::NodeId;
using net::Role;
using net::Zone;

const char* to_string(VariantPolicy p) noexcept {
  switch (p) {
    case VariantPolicy::kMonoculture: return "monoculture";
    case VariantPolicy::kZoneStratified: return "zone-stratified";
    case VariantPolicy::kRandomPerNode: return "random-per-node";
    case VariantPolicy::kBalancedRotation: return "balanced-rotation";
  }
  return "?";
}

ScenarioBuilder::ScenarioBuilder(net::Topology topology,
                                 const divers::VariantCatalog& catalog)
    : topology_(std::move(topology)),
      catalog_(&catalog),
      firewall_(net::Firewall::segmented_ics()) {
  if (topology_.node_count() == 0)
    throw std::invalid_argument("ScenarioBuilder: empty topology");
}

ScenarioBuilder& ScenarioBuilder::firewall(net::Firewall fw) {
  firewall_ = std::move(fw);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::variant_policy(VariantPolicy policy) {
  policy_ = policy;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::firewall_variant(std::size_t v) {
  firewall_variant_ = v;
  return *this;
}

namespace {

/// Seeded (kind, zone) -> variant table for kZoneStratified. Draw order
/// is fixed (kind-major, zone-minor) so assignments are reproducible.
struct ZoneTable {
  std::array<std::array<std::size_t, net::kZoneCount>, divers::kComponentKindCount>
      variant{};

  ZoneTable(const divers::VariantCatalog& cat, stats::Rng& rng) {
    for (ComponentKind kind : divers::all_component_kinds())
      for (std::size_t z = 0; z < net::kZoneCount; ++z)
        variant[static_cast<std::size_t>(kind)][z] = rng.below(cat.count(kind));
  }

  [[nodiscard]] std::size_t operator()(ComponentKind kind, Zone zone) const {
    return variant[static_cast<std::size_t>(kind)][static_cast<std::size_t>(zone)];
  }
};

/// Seeded per-kind variant permutations plus rotation counters for
/// kBalancedRotation. Permutations are drawn up front (kind-major,
/// Fisher-Yates) and the counters advance once per assignment in node-id
/// / slot order, so each kind's variants are dealt out maximally evenly
/// and the whole assignment stays a pure function of (topology, seed).
struct RotationTable {
  std::array<std::vector<std::size_t>, divers::kComponentKindCount> perm;
  std::array<std::size_t, divers::kComponentKindCount> next{};

  RotationTable(const divers::VariantCatalog& cat, stats::Rng& rng) {
    for (ComponentKind kind : divers::all_component_kinds()) {
      std::vector<std::size_t>& p = perm[static_cast<std::size_t>(kind)];
      p.resize(cat.count(kind));
      for (std::size_t i = 0; i < p.size(); ++i) p[i] = i;
      for (std::size_t i = 0; i + 1 < p.size(); ++i)
        std::swap(p[i], p[i + rng.below(p.size() - i)]);
    }
  }

  [[nodiscard]] std::size_t operator()(ComponentKind kind) {
    const std::size_t k = static_cast<std::size_t>(kind);
    return perm[k][next[k]++ % perm[k].size()];
  }
};

}  // namespace

GeneratedScenario ScenarioBuilder::build(std::string name,
                                         std::uint64_t seed) const {
  const divers::VariantCatalog& cat = *catalog_;
  stats::Rng root(seed);
  stats::Rng assign_rng = root.stream(3);

  GeneratedScenario out;
  out.name = std::move(name);
  attack::Scenario& sc = out.scenario;
  sc.topology = topology_;
  sc.firewall = firewall_;

  const std::size_t n = sc.topology.node_count();
  sc.software.assign(n, attack::NodeSoftware{});

  // The zone-stratified table is drawn up front (fixed draw order);
  // per-node draws then walk nodes in id order with a fixed slot order,
  // so an assignment is a pure function of (topology, catalog, seed).
  std::optional<ZoneTable> zones;
  if (policy_ == VariantPolicy::kZoneStratified) zones.emplace(cat, assign_rng);
  std::optional<RotationTable> rotation;
  if (policy_ == VariantPolicy::kBalancedRotation) rotation.emplace(cat, assign_rng);

  const auto pick = [&](ComponentKind kind, Zone zone) -> std::size_t {
    switch (policy_) {
      case VariantPolicy::kMonoculture: return 0;
      case VariantPolicy::kZoneStratified: return (*zones)(kind, zone);
      case VariantPolicy::kRandomPerNode: return assign_rng.below(cat.count(kind));
      case VariantPolicy::kBalancedRotation: return (*rotation)(kind);
    }
    return 0;
  };

  for (NodeId i = 0; i < n; ++i) {
    const net::Node& node = sc.topology.node(i);
    attack::NodeSoftware& sw = sc.software[i];
    sw.os = pick(ComponentKind::kOs, node.zone);
    sw.protocol = pick(ComponentKind::kProtocolStack, node.zone);
    if (node.role == Role::kPlc)
      sw.plc_firmware = pick(ComponentKind::kPlcFirmware, node.zone);
    if (node.role == Role::kHmi)
      sw.hmi = pick(ComponentKind::kHmiSoftware, node.zone);
    if (node.role == Role::kHistorian)
      sw.historian = pick(ComponentKind::kHistorianDb, node.zone);
  }

  if (firewall_variant_) {
    sc.firewall_variant = *firewall_variant_;
  } else if (policy_ == VariantPolicy::kMonoculture) {
    sc.firewall_variant = 0;
  } else {
    sc.firewall_variant =
        assign_rng.below(cat.count(ComponentKind::kFirewallFirmware));
  }

  // Entry nodes: wherever operators plug removable media in.
  for (NodeId i = 0; i < n; ++i)
    if (sc.topology.node(i).usb_exposure) sc.entry_nodes.push_back(i);

  // Sabotage targets: every PLC.
  sc.target_plcs = sc.topology.nodes_with_role(Role::kPlc);

  // DoE components over the fleet, mirroring the paper case study's
  // seven-factor shape. Node-bound components with no nodes are dropped
  // (e.g. no HMIs on a two-machine rig).
  const auto add_component = [&](const char* cname, ComponentKind kind,
                                 std::vector<NodeId> nodes) {
    if (kind != ComponentKind::kFirewallFirmware && nodes.empty()) return;
    out.components.push_back({cname, kind, std::move(nodes)});
  };
  std::vector<NodeId> corp_os, ctl_os, proto, hmis, hists;
  for (NodeId i = 0; i < n; ++i) {
    const net::Node& node = sc.topology.node(i);
    if (node.zone == Zone::kCorporate || node.zone == Zone::kDmz)
      corp_os.push_back(i);
    if (node.zone == Zone::kControl) ctl_os.push_back(i);
    if (node.role == Role::kPlc || node.role == Role::kSensorGateway ||
        node.role == Role::kScadaServer)
      proto.push_back(i);
    if (node.role == Role::kHmi) hmis.push_back(i);
    if (node.role == Role::kHistorian) hists.push_back(i);
  }
  add_component("os.corporate", ComponentKind::kOs, std::move(corp_os));
  add_component("os.control", ComponentKind::kOs, std::move(ctl_os));
  add_component("plc.firmware", ComponentKind::kPlcFirmware, sc.target_plcs);
  add_component("protocol.stack", ComponentKind::kProtocolStack, std::move(proto));
  add_component("firewall", ComponentKind::kFirewallFirmware, {});
  add_component("hmi.software", ComponentKind::kHmiSoftware, std::move(hmis));
  add_component("historian.db", ComponentKind::kHistorianDb, std::move(hists));

  sc.validate(cat);
  return out;
}

}  // namespace divsec::scenario
