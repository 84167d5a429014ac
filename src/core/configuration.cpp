#include "core/configuration.h"

#include <cstdint>
#include <stdexcept>

namespace divsec::core {

using divers::ComponentKind;

SystemDescription::SystemDescription(attack::Scenario baseline,
                                     std::vector<Component> components,
                                     const divers::VariantCatalog& catalog)
    : baseline_(std::move(baseline)),
      components_(std::move(components)),
      catalog_(&catalog) {
  if (components_.empty())
    throw std::invalid_argument("SystemDescription: no components");
  for (const auto& c : components_) {
    if (c.name.empty()) throw std::invalid_argument("Component: empty name");
    if (catalog_->count(c.kind) == 0)
      throw std::invalid_argument("Component '" + c.name +
                                  "': catalog has no variants of its kind");
    for (net::NodeId n : c.nodes)
      if (n >= baseline_.topology.node_count())
        throw std::out_of_range("Component '" + c.name + "': node out of range");
    if (c.kind != ComponentKind::kFirewallFirmware && c.nodes.empty())
      throw std::invalid_argument("Component '" + c.name +
                                  "': node-bound kind with no nodes");
  }
  baseline_.validate(*catalog_);
}

Configuration SystemDescription::baseline_configuration() const {
  Configuration c;
  c.variant.assign(components_.size(), 0);
  return c;
}

void SystemDescription::validate(const Configuration& config) const {
  if (config.variant.size() != components_.size())
    throw std::invalid_argument("Configuration: arity mismatch");
  for (std::size_t i = 0; i < components_.size(); ++i)
    if (config.variant[i] >= catalog_->count(components_[i].kind))
      throw std::out_of_range("Configuration: variant index out of range for '" +
                              components_[i].name + "'");
}

attack::Scenario SystemDescription::instantiate(const Configuration& config) const {
  validate(config);
  attack::Scenario sc = baseline_;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const Component& comp = components_[i];
    // validate() holds it below the catalog's count, which is at most
    // kMaxVariantsPerKind, so it fits a byte.
    const auto v = static_cast<std::uint8_t>(config.variant[i]);
    switch (comp.kind) {
      case ComponentKind::kOs:
        for (net::NodeId n : comp.nodes) sc.software[n].os = v;
        break;
      case ComponentKind::kPlcFirmware:
        for (net::NodeId n : comp.nodes) sc.software[n].plc_firmware = v;
        break;
      case ComponentKind::kProtocolStack:
        for (net::NodeId n : comp.nodes) sc.software[n].protocol = v;
        break;
      case ComponentKind::kHmiSoftware:
        for (net::NodeId n : comp.nodes) sc.software[n].hmi = v;
        break;
      case ComponentKind::kFirewallFirmware:
        sc.firewall_variant = v;
        break;
      case ComponentKind::kHistorianDb:
        for (net::NodeId n : comp.nodes) sc.software[n].historian = v;
        break;
    }
  }
  sc.validate(*catalog_);
  return sc;
}

stats::FactorSpace SystemDescription::factor_space() const {
  std::vector<stats::Factor> factors;
  factors.reserve(components_.size());
  for (const auto& c : components_) {
    stats::Factor f;
    f.name = c.name;
    for (const auto& v : catalog_->variants(c.kind)) f.levels.push_back(v.name);
    factors.push_back(std::move(f));
  }
  return stats::FactorSpace(std::move(factors));
}

double SystemDescription::extra_cost(const Configuration& config) const {
  validate(config);
  double cost = 0.0;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    const Component& comp = components_[i];
    const double scale =
        comp.nodes.empty() ? 1.0 : static_cast<double>(comp.nodes.size());
    cost += scale * (catalog_->variant(comp.kind, config.variant[i]).cost -
                     catalog_->variant(comp.kind, 0).cost);
  }
  return cost;
}

SystemDescription make_scope_description(const divers::VariantCatalog& catalog) {
  attack::Scenario sc = attack::make_scope_cooling_scenario();
  const auto& t = sc.topology;
  const auto id = [&t](const char* name) { return t.node_by_name(name); };

  std::vector<Component> comps;
  comps.push_back({"os.corporate", ComponentKind::kOs,
                   {id("corp.ws1"), id("corp.ws2"), id("corp.server"),
                    id("dmz.hist-mirror")}});
  comps.push_back({"os.control", ComponentKind::kOs,
                   {id("ctl.scada"), id("ctl.eng"), id("ctl.hmi"),
                    id("ctl.historian")}});
  comps.push_back({"plc.firmware", ComponentKind::kPlcFirmware,
                   {id("fld.plc-chiller"), id("fld.plc-crac")}});
  comps.push_back({"protocol.stack", ComponentKind::kProtocolStack,
                   {id("fld.plc-chiller"), id("fld.plc-crac"), id("fld.sensor-gw"),
                    id("ctl.scada")}});
  comps.push_back({"firewall", ComponentKind::kFirewallFirmware, {}});
  comps.push_back({"hmi.software", ComponentKind::kHmiSoftware, {id("ctl.hmi")}});
  comps.push_back({"historian.db", ComponentKind::kHistorianDb,
                   {id("dmz.hist-mirror"), id("ctl.historian")}});
  return SystemDescription(std::move(sc), std::move(comps), catalog);
}

}  // namespace divsec::core
