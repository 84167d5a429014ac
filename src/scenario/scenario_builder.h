// scenario_builder.h — topology + catalog -> runnable attack scenario.
//
// Bridges the generated (or hand-built) net::Topology to everything the
// measurement stack needs: per-node software slots filled by role, entry
// nodes derived from removable-media exposure, sabotage targets, a
// firewall policy, a seeded variant assignment drawn from the
// VariantCatalog, and the core::Component grouping that exposes the
// fleet to the DoE machinery. The output GeneratedScenario is the unit
// the preset registry returns and the fleet sweep flavour of
// core::MeasurementEngine consumes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/configuration.h"

namespace divsec::scenario {

/// How deployed variants are assigned across a generated fleet.
enum class VariantPolicy : std::uint8_t {
  /// Baseline (index 0) everywhere: the monoculture the paper argues
  /// against, and the control arm of every fleet experiment.
  kMonoculture,
  /// One seeded variant per (component kind, zone): the "managed
  /// diversity" a real operator can actually administer.
  kZoneStratified,
  /// Independent seeded per-node draws: the maximum-entropy deployment.
  kRandomPerNode,
  /// Round-robin through a seeded per-kind variant permutation, in node
  /// id order: every variant of a kind gets an equal share (counts
  /// differ by at most one). The procurement-quota deployment — an
  /// operator buying equal lots of each product — and the
  /// maximum-evenness contrast to kRandomPerNode's multinomial spread.
  kBalancedRotation,
};

[[nodiscard]] const char* to_string(VariantPolicy p) noexcept;

/// A generated system plus its DoE view.
struct GeneratedScenario {
  std::string name;
  attack::Scenario scenario;
  /// Component grouping over the fleet (corporate OS, control OS, PLC
  /// firmware, protocol stack, firewall, HMI software, historian DB) —
  /// the same seven-factor shape the paper's case study uses, so the
  /// existing pipeline/DoE code runs unchanged on generated fleets.
  std::vector<core::Component> components;

  [[nodiscard]] core::SystemDescription make_description(
      const divers::VariantCatalog& catalog) const {
    return core::SystemDescription(scenario, components, catalog);
  }
};

class ScenarioBuilder {
 public:
  /// The catalog must outlive the builder and the built scenarios.
  ScenarioBuilder(net::Topology topology, const divers::VariantCatalog& catalog);

  /// Firewall policy (default: net::Firewall::segmented_ics()).
  ScenarioBuilder& firewall(net::Firewall fw);

  /// Variant assignment policy (default: kMonoculture).
  ScenarioBuilder& variant_policy(VariantPolicy policy);

  /// Pin the zone firewall's firmware variant (default: 0 under
  /// kMonoculture, seeded draw under the other policies).
  ScenarioBuilder& firewall_variant(std::size_t v);

  /// Assemble and validate. Deterministic in `seed`; the variant draws
  /// use substreams of Rng(seed) so the same fleet under two policies
  /// differs only in the assignment.
  [[nodiscard]] GeneratedScenario build(std::string name, std::uint64_t seed) const;

 private:
  net::Topology topology_;
  const divers::VariantCatalog* catalog_;
  net::Firewall firewall_;
  VariantPolicy policy_ = VariantPolicy::kMonoculture;
  std::optional<std::size_t> firewall_variant_;
};

}  // namespace divsec::scenario
