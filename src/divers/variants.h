// variants.h — HW/SW component variants and mechanistic exploit success.
//
// The paper: "the root access stage might have a success probability P1
// when operating system OS1 is used, or P2 in case OS2 is used (P1 != P2).
// Probability values reflect the availability of tools and/or exploits."
//
// Instead of hand-setting P1/P2, this module derives them from code-level
// quantities: every variant carries a real (toy-ISA) binary; an exploit
// is developed against one variant; its per-session success on a deployed
// variant combines
//   * patch status of the targeted CVE (non-zero-days die on patched
//     variants),
//   * gadget survival between the development binary and the deployed
//     binary (diversity breaks payloads),
//   * the deployed variant's hardening factor,
// and its *work factor* (time multiplier) comes from the deployed
// variant's ASLR entropy. Direct probability injection is still possible
// (the DoE sensitivity mode) by constructing synthetic catalogs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "divers/aslr.h"
#include "divers/gadgets.h"
#include "divers/ir.h"

namespace divsec::divers {

/// The component kinds the SCoPE case study diversifies.
enum class ComponentKind : std::uint8_t {
  kOs = 0,            // control/monitoring node operating system
  kPlcFirmware,       // PLC runtime
  kProtocolStack,     // fieldbus / telemetry stack
  kHmiSoftware,       // operator console software
  kFirewallFirmware,  // zone firewall implementation
  kHistorianDb,       // historian database engine
};

inline constexpr std::size_t kComponentKindCount = 6;

/// At most this many variants of one kind: a deployed variant index is
/// stored in one byte per node slot (attack::NodeSoftware), so every
/// index a catalog hands out must fit in a std::uint8_t.
inline constexpr std::size_t kMaxVariantsPerKind = 256;

[[nodiscard]] std::array<ComponentKind, kComponentKindCount> all_component_kinds() noexcept;

struct Variant {
  std::string name;
  ComponentKind kind = ComponentKind::kOs;
  /// Variants in one family share a code base (an exploit ports partially
  /// within a family, almost never across families).
  std::string family;
  Program binary;
  std::vector<int> patched_cves;  // sorted CVE ids closed in this variant
  int aslr_bits = 0;
  /// Additional attack-resilience in [0,1): per-session failure factor
  /// from mitigations other than layout (CFI, signed firmware, ...).
  double hardening = 0.0;
  /// Relative procurement + integration cost (baseline variant = 1.0).
  double cost = 1.0;

  [[nodiscard]] bool patched(int cve) const noexcept;
};

/// A concrete exploit in the attack toolkit.
struct Exploit {
  std::string id;
  ComponentKind target = ComponentKind::kOs;
  int cve = 0;
  bool zero_day = false;
  /// Index (within the catalog's kind list) of the variant the exploit
  /// was developed against.
  std::size_t dev_variant = 0;
  /// Per-session success probability against the development variant
  /// itself (tooling quality).
  double base_success = 0.5;
};

class VariantCatalog {
 public:
  /// The standard catalog: 2-4 variants per kind spanning same-family
  /// patch-level diversity, cross-family diversity, a multicompiled
  /// variant and hardened variants. Deterministic in `seed`.
  [[nodiscard]] static VariantCatalog standard(std::uint64_t seed);

  /// An empty catalog for custom construction (tests, sensitivity mode).
  VariantCatalog() = default;

  /// Append a variant; returns its index within its kind. Throws
  /// std::length_error when its kind already holds kMaxVariantsPerKind.
  std::size_t add_variant(Variant v);

  [[nodiscard]] const std::vector<Variant>& variants(ComponentKind k) const;
  [[nodiscard]] const Variant& variant(ComponentKind k, std::size_t idx) const;
  [[nodiscard]] std::size_t count(ComponentKind k) const;

  /// Find a variant index by name; throws std::out_of_range if absent.
  [[nodiscard]] std::size_t index_of(ComponentKind k, const std::string& name) const;

  /// Gadget survival from variant `dev` to variant `deployed` (same
  /// kind). Precomputed when variants are added, so const lookups are
  /// race-free under concurrent measurement.
  [[nodiscard]] double survival(ComponentKind k, std::size_t dev,
                                std::size_t deployed) const;

  /// Per-session success probability of `e` against deployed variant
  /// `deployed_idx` of its target kind.
  [[nodiscard]] double exploit_success(const Exploit& e, std::size_t deployed_idx) const;

  /// Work factor >= 1: expected time multiplier from the deployed
  /// variant's ASLR (2^bits guesses, log-compressed to a session scale).
  [[nodiscard]] double exploit_work_factor(const Exploit& e,
                                           std::size_t deployed_idx) const;

 private:
  void rebuild_survival(std::size_t kind_index);

  std::array<std::vector<Variant>, kComponentKindCount> by_kind_;
  // survival matrix per kind: dev*count+deployed -> value. Rebuilt
  // eagerly by add_variant; a fully-constructed catalog is deeply
  // immutable and therefore safe to share across executor threads.
  std::array<std::vector<double>, kComponentKindCount> survival_cache_;
};

}  // namespace divsec::divers
