// presets.h — the named scenario registry.
//
// One call turns a preset name into a runnable GeneratedScenario:
//
//   auto fleet = scenario::make_preset("enterprise1024", catalog, seed);
//
// and one call into a sweep's arms over one shared topology:
//
//   auto arms = scenario::make_preset_arms("enterprise1024", catalog, seed,
//                                          policies);
//
// Fixed presets:
//   * paper_two_machines — the paper's minimal case study: one
//     engineering workstation driving one PLC;
//   * scope_cooling      — the 11-node SCoPE data-center cooling plant
//     used throughout the reproduction (topology + the curated
//     seven-component DoE grouping of make_scope_description);
//   * plant_small        — a 15-node single-site plant;
//   * plant_medium       — a 54-node two-site plant.
//
// Parameterized family:
//   * enterprise{N}      — an N-node fleet (24 <= N <= kMaxFamilyNodes,
//     2^20; a larger N is rejected by name, before anything is built),
//     e.g. enterprise64,
//     enterprise256, enterprise1024: multi-site control zones with field
//     cells, a DMZ historian tier and a corporate zone that absorbs the
//     remaining headcount. node_count() == N exactly.
//
// Procedural families (family_spec.h) are also preset names: any string
// FamilySpec::parse accepts — "brownfield", "hub-spoke:nodes=512", a
// full "familyv1:..." canonical form — expands here, and
// resolve_preset_name canonicalizes it so the sweep layer fingerprints
// one spelling per spec.
//
// Every preset is deterministic in (name, catalog, seed, policy).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "scenario/scenario_builder.h"
#include "scenario/topology_generator.h"

namespace divsec::scenario {

/// Fixed preset names plus the "enterprise{N}" template (listed
/// literally; any N >= kMinEnterpriseNodes substitutes).
[[nodiscard]] std::vector<std::string> preset_names();

inline constexpr std::size_t kMinEnterpriseNodes = 24;

/// Canonicalize a preset name: fixed presets pass through unchanged,
/// enterprise{N} comes back rendered from the parsed N (enterprise0256
/// is enterprise256), and family specs come back in
/// FamilySpec::canonical() form — so two spellings of the same preset
/// fingerprint identically.
/// Throws std::out_of_range listing presets and families for unknown
/// names, std::invalid_argument for malformed family parameters and for
/// enterprise{N} with N above kMaxFamilyNodes.
[[nodiscard]] std::string resolve_preset_name(const std::string& name);

/// The FleetSpec behind enterprise{N}: sites scale as N/32, servers as
/// N/64, DMZ historians as sites/4; corporate workstations absorb the
/// remainder so the total is exactly N.
[[nodiscard]] FleetSpec enterprise_spec(std::size_t total_nodes);

/// Build a preset's arms, one per policy, in `policies` order. The
/// topology is generated once and every arm holds a copy of it, so the
/// arms share one topology storage (net::Topology::identity()) and a
/// measurement over them builds one reachability index. Throws
/// std::out_of_range for unknown names (the message lists every preset
/// and family), and std::invalid_argument for a
/// recognizable-but-unsatisfiable request (enterprise{N} with N below
/// kMinEnterpriseNodes, a family spec with bad parameters) — the more
/// informative error wins.
[[nodiscard]] std::vector<GeneratedScenario> make_preset_arms(
    const std::string& name, const divers::VariantCatalog& catalog,
    std::uint64_t seed, std::span<const VariantPolicy> policies);

/// One arm of make_preset_arms: build a preset under one policy.
[[nodiscard]] GeneratedScenario make_preset(
    const std::string& name, const divers::VariantCatalog& catalog,
    std::uint64_t seed, VariantPolicy policy = VariantPolicy::kMonoculture);

}  // namespace divsec::scenario
