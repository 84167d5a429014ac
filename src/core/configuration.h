// configuration.h — the diversifiable-system description and its
// configuration space.
//
// Step 1 of the paper identifies "the components that can be potentially
// diversified in a given SCADA system". A Component binds one
// VariantCatalog kind to the set of nodes it is deployed on; a
// Configuration picks one variant per component; SystemDescription turns
// a Configuration into a concrete attack::Scenario and exposes the space
// as a stats::FactorSpace so the DoE machinery can enumerate or screen it.
#pragma once

#include <string>
#include <vector>

#include "attack/campaign.h"
#include "divers/variants.h"
#include "stats/doe.h"

namespace divsec::core {

/// One diversifiable component: a catalog kind deployed on given nodes.
/// Scenario-level kinds (the zone firewall) leave `nodes` empty.
struct Component {
  std::string name;
  divers::ComponentKind kind = divers::ComponentKind::kOs;
  std::vector<net::NodeId> nodes;
};

/// A point in the configuration space: variant index per component.
struct Configuration {
  std::vector<std::size_t> variant;

  bool operator==(const Configuration&) const = default;
};

class SystemDescription {
 public:
  SystemDescription(attack::Scenario baseline, std::vector<Component> components,
                    const divers::VariantCatalog& catalog);

  [[nodiscard]] const attack::Scenario& baseline() const noexcept { return baseline_; }
  [[nodiscard]] const std::vector<Component>& components() const noexcept {
    return components_;
  }
  [[nodiscard]] std::size_t component_count() const noexcept {
    return components_.size();
  }
  [[nodiscard]] const divers::VariantCatalog& catalog() const noexcept {
    return *catalog_;
  }

  /// The all-baseline (variant 0 everywhere) configuration: the
  /// monoculture the paper argues against.
  [[nodiscard]] Configuration baseline_configuration() const;

  /// Apply a configuration to the baseline scenario.
  [[nodiscard]] attack::Scenario instantiate(const Configuration& config) const;

  /// The space as DoE factors (levels = variant names).
  [[nodiscard]] stats::FactorSpace factor_space() const;

  /// Extra cost of `config` relative to the baseline configuration
  /// (sum over components of variant cost - baseline variant cost).
  [[nodiscard]] double extra_cost(const Configuration& config) const;

  void validate(const Configuration& config) const;

 private:
  attack::Scenario baseline_;
  std::vector<Component> components_;
  const divers::VariantCatalog* catalog_;
};

/// The SCoPE cooling-system description used across examples and benches:
/// seven components (corporate OS, control-zone OS, PLC firmware,
/// protocol stack, zone firewall, HMI software, historian DB) over the
/// make_scope_cooling_scenario() topology.
[[nodiscard]] SystemDescription make_scope_description(
    const divers::VariantCatalog& catalog);

}  // namespace divsec::core
