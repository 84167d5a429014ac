// family_spec.h — procedural scenario families: a versioned, canonically
// serializable parameter block that expands into a topology.
//
// The preset registry's five shapes cover the paper's case studies; sweep
// campaigns over thousands of distinct deployments need topologies drawn
// from *families*. A FamilySpec selects one of four generation algorithms
// and its parameters:
//
//   * purdue-deep — classic Purdue hierarchy with a configurable number
//     of field aggregation tiers (`depth` sensor-gateway hops between the
//     SCADA server and the PLC leaves): the deeply segmented greenfield.
//   * mesh-flat   — converged IT/OT: every node on one flat, ring-backed
//     mesh with `density`-scaled random cross-links and no DMZ. What the
//     Purdue model exists to prevent.
//   * hub-spoke   — multi-site: a corporate hub (servers, workstations,
//     DMZ historians) and `sites` small spokes, each reaching the hub
//     through exactly one SCADA-to-DMZ uplink.
//   * brownfield  — partially segmented reality: `segmentation` of the
//     sites are properly zoned (historian-to-DMZ mirror only), the rest
//     keep legacy flat uplinks (SCADA straight into the corporate
//     backbone) and `density`-scaled contractor shortcuts from field
//     PLCs to office workstations.
//
// The determinism contract mirrors the preset registry's: expansion is a
// pure function of (spec, seed), so the named-spec re-expansion rule of
// the distributed sweep layer keeps holding — a canonical spec string is
// a preset name, shards ship zero topology bytes, and the canonical form
// feeds the sweep fingerprint. canonical() serializes every field in a
// fixed order behind a format-version prefix ("familyv1:"), parse() is
// lenient about spelling but canonical(parse(s)) is idempotent, and two
// specs differing in any field canonicalize differently.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace divsec::scenario {

/// The four generation algorithms. Each is a distinct wiring discipline,
/// not a parameter setting of one master shape.
enum class TopologyFamily : std::uint8_t {
  kPurdueDeep,
  kMeshFlat,
  kHubSpoke,
  kBrownfield,
};

inline constexpr std::size_t kTopologyFamilyCount = 4;

[[nodiscard]] const char* to_string(TopologyFamily f) noexcept;

/// The family names in enum order ("purdue-deep", "mesh-flat",
/// "hub-spoke", "brownfield") — what error listings and --help print.
[[nodiscard]] std::vector<std::string> family_names();

/// Format version of the canonical spec string. Bump when a field is
/// added or its meaning changes; parse() rejects versions it does not
/// speak (the canonical string is fingerprint material, so a silent
/// reinterpretation would corrupt the re-expansion contract).
inline constexpr std::uint32_t kFamilySpecVersion = 1;

inline constexpr std::size_t kMinFamilyNodes = 16;
inline constexpr std::size_t kMaxFamilyNodes = std::size_t{1} << 20;
inline constexpr std::size_t kMaxFamilySites = 4096;
inline constexpr std::size_t kMaxFamilyDepth = 6;

/// Derived integer layout of a family expansion: how the node budget is
/// dealt across the backbone and the sites. Computed in one place
/// (FamilySpec::budget()) and shared by validate() and the generator, so
/// feasibility checking and generation can never disagree. All of it is
/// plain integer arithmetic on the spec — no randomness.
struct FamilyBudget {
  std::size_t sites = 1;
  std::size_t servers = 0;        // corporate backbone servers
  std::size_t dmz = 0;            // DMZ historians (0 for mesh-flat)
  std::size_t workstations = 0;   // corporate workstations
  std::size_t plcs = 0;           // PLC total, dealt round-robin to sites
  std::size_t site_skeleton = 0;  // fixed per-site nodes (family-specific)

  /// PLCs of site s under the round-robin deal (earlier sites absorb the
  /// remainder): plcs/sites + (s < plcs % sites).
  [[nodiscard]] std::size_t plcs_for_site(std::size_t s) const noexcept {
    return plcs / sites + (s < plcs % sites ? 1 : 0);
  }
};

/// One procedurally generated deployment family instance. Every field is
/// part of the canonical form — and therefore of the sweep fingerprint —
/// whether or not the selected family reads it.
struct FamilySpec {
  TopologyFamily family = TopologyFamily::kPurdueDeep;
  /// Total node count; generation hits it exactly.
  std::size_t nodes = 256;
  /// Site (purdue/brownfield) or spoke (hub-spoke) count; 0 = auto
  /// (max(1, nodes / 48)). canonical() always prints the resolved value,
  /// so the resolved value must be <= kMaxFamilySites too.
  std::size_t sites = 0;
  /// purdue-deep: field aggregation tiers between SCADA and the PLCs.
  std::size_t depth = 2;
  /// mesh-flat: extra cross-link intensity; brownfield: contractor-
  /// shortcut probability per legacy PLC. In [0, 1].
  double density = 0.15;
  /// brownfield: fraction of sites that are properly segmented. In [0,1].
  double segmentation = 0.5;
  /// Fraction of workstations whose operators plug removable media in
  /// (the first workstation and every engineering station always do).
  double usb_fraction = 0.35;

  [[nodiscard]] std::size_t resolved_sites() const noexcept {
    if (sites > 0) return sites;
    return nodes / 48 > 0 ? nodes / 48 : 1;
  }

  /// Range-check every field and prove the node budget feasible.
  /// Throws std::invalid_argument naming the offending field.
  void validate() const;

  /// The budget layout this spec expands to (validates on the way).
  [[nodiscard]] FamilyBudget budget() const;

  /// The canonical spec string, e.g.
  ///   familyv1:hub-spoke:nodes=256,sites=5,depth=2,density=0.15,
  ///   segmentation=0.5,usb=0.35
  /// Fixed field order, resolved sites, shortest-round-trip doubles:
  /// equal specs render equally, different specs render differently.
  [[nodiscard]] std::string canonical() const;

  /// Whether `name` claims to be a family spec (its first ':'-segment is
  /// the version prefix or a family name). A true return means parse()
  /// owns the name — it may still throw on malformed parameters.
  [[nodiscard]] static bool is_family_name(const std::string& name);

  /// Parse "familyv1:FAMILY[:k=v,...]", "FAMILY[:k=v,...]" or a bare
  /// family name; values follow util/strict_text.h's number grammar.
  /// Unlisted parameters keep their defaults. Throws
  /// std::invalid_argument (listing families / parameter names) on
  /// unknown families, unknown keys, malformed or out-of-range values.
  [[nodiscard]] static FamilySpec parse(const std::string& name);

  /// Parse a flat JSON object, e.g.
  ///   {"family": "brownfield", "nodes": 512, "segmentation": 0.75}
  /// Same keys as the canonical form plus "family"; same defaulting and
  /// validation as parse().
  [[nodiscard]] static FamilySpec from_json(const std::string& text);
};

/// Exact field equality (what canonical() equality means, minus the
/// sites auto-resolution).
[[nodiscard]] bool operator==(const FamilySpec& a, const FamilySpec& b) noexcept;

}  // namespace divsec::scenario
