#include "divers/variants.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "divers/transforms.h"

namespace divsec::divers {

std::array<ComponentKind, kComponentKindCount> all_component_kinds() noexcept {
  return {ComponentKind::kOs,          ComponentKind::kPlcFirmware,
          ComponentKind::kProtocolStack, ComponentKind::kHmiSoftware,
          ComponentKind::kFirewallFirmware, ComponentKind::kHistorianDb};
}

bool Variant::patched(int cve) const noexcept {
  return std::binary_search(patched_cves.begin(), patched_cves.end(), cve);
}

std::size_t VariantCatalog::add_variant(Variant v) {
  std::sort(v.patched_cves.begin(), v.patched_cves.end());
  if (v.hardening < 0.0 || v.hardening >= 1.0)
    throw std::invalid_argument("add_variant: hardening must be in [0,1)");
  if (!(v.cost > 0.0)) throw std::invalid_argument("add_variant: cost must be > 0");
  const auto ki = static_cast<std::size_t>(v.kind);
  auto& vec = by_kind_[ki];
  if (vec.size() >= kMaxVariantsPerKind)
    throw std::length_error("add_variant: more than " +
                            std::to_string(kMaxVariantsPerKind) +
                            " variants of one kind");
  vec.push_back(std::move(v));
  rebuild_survival(ki);
  return vec.size() - 1;
}

void VariantCatalog::rebuild_survival(std::size_t kind_index) {
  const auto& vec = by_kind_[kind_index];
  const std::size_t n = vec.size();
  auto& cache = survival_cache_[kind_index];
  std::vector<double> next(n * n, 1.0);
  for (std::size_t dev = 0; dev < n; ++dev) {
    for (std::size_t dep = 0; dep < n; ++dep) {
      // Only the last row/column are new; reuse previously computed pairs.
      if (dev + 1 < n && dep + 1 < n && cache.size() == (n - 1) * (n - 1)) {
        next[dev * n + dep] = cache[dev * (n - 1) + dep];
      } else {
        next[dev * n + dep] = gadget_survival(vec[dev].binary, vec[dep].binary);
      }
    }
  }
  cache = std::move(next);
}

const std::vector<Variant>& VariantCatalog::variants(ComponentKind k) const {
  return by_kind_[static_cast<std::size_t>(k)];
}

const Variant& VariantCatalog::variant(ComponentKind k, std::size_t idx) const {
  return by_kind_[static_cast<std::size_t>(k)].at(idx);
}

std::size_t VariantCatalog::count(ComponentKind k) const {
  return by_kind_[static_cast<std::size_t>(k)].size();
}

std::size_t VariantCatalog::index_of(ComponentKind k, const std::string& name) const {
  const auto& vec = by_kind_[static_cast<std::size_t>(k)];
  for (std::size_t i = 0; i < vec.size(); ++i)
    if (vec[i].name == name) return i;
  throw std::out_of_range("index_of: no variant named '" + name + "'");
}

double VariantCatalog::survival(ComponentKind k, std::size_t dev,
                                std::size_t deployed) const {
  const auto ki = static_cast<std::size_t>(k);
  const std::size_t n = by_kind_[ki].size();
  if (dev >= n || deployed >= n)
    throw std::out_of_range("survival: variant index out of range");
  return survival_cache_[ki][dev * n + deployed];
}

double VariantCatalog::exploit_success(const Exploit& e, std::size_t deployed_idx) const {
  const Variant& dep = variant(e.target, deployed_idx);
  if (!e.zero_day && dep.patched(e.cve)) return 0.0;
  const double s = survival(e.target, e.dev_variant, deployed_idx);
  // Even with every hardcoded gadget broken, a competent attacker retains
  // a small per-session chance of in-session adaptation (info leaks,
  // partial overwrite); with full survival the payload ports unmodified.
  const double structural = 0.05 + 0.95 * s;
  return e.base_success * structural * (1.0 - dep.hardening);
}

double VariantCatalog::exploit_work_factor(const Exploit& e,
                                           std::size_t deployed_idx) const {
  const Variant& dep = variant(e.target, deployed_idx);
  const AslrModel aslr(dep.aslr_bits);
  // An exploitation session internally brute-forces layout; sessions get
  // slower with entropy, but sub-exponentially (crash-tolerant spraying,
  // partial-pointer tricks): scale time by 1 + bits/4.
  return 1.0 + static_cast<double>(aslr.entropy_bits()) / 4.0;
}

namespace {

Program family_binary(std::uint64_t seed, ComponentKind k, std::uint32_t family_tag) {
  stats::Rng rng(seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(k) + 1)),
                 family_tag);
  GeneratorOptions opts;
  opts.blocks = 16;
  opts.instructions_per_block = 12;
  return generate_program(rng, opts);
}

/// Patch-level sibling: mild transforms leave a large fraction of gadgets
/// intact (service packs recompile little).
Program patch_sibling(const Program& base, std::uint64_t seed, std::uint64_t tag) {
  stats::Rng rng(seed, tag);
  TransformConfig cfg;
  cfg.nop_insertion = true;
  cfg.nop_density = 0.04;
  cfg.instruction_substitution = true;
  cfg.substitution_probability = 0.15;
  cfg.register_renaming = false;
  cfg.block_reordering = false;
  return diversify(base, cfg, rng);
}

/// Multicompiled sibling: the full pipeline, survival ~0.
Program multicompiled(const Program& base, std::uint64_t seed, std::uint64_t tag) {
  stats::Rng rng(seed, tag);
  return diversify(base, TransformConfig::all(), rng);
}

}  // namespace

VariantCatalog VariantCatalog::standard(std::uint64_t seed) {
  VariantCatalog cat;

  // --- Operating systems -------------------------------------------------
  // CVE ids 100..199. The legacy OS is the exploit development target.
  {
    const Program win = family_binary(seed, ComponentKind::kOs, 1);
    const Program lin = family_binary(seed, ComponentKind::kOs, 2);
    const Program rtos = family_binary(seed, ComponentKind::kOs, 3);
    cat.add_variant({"os.win_legacy", ComponentKind::kOs, "windows", win,
                     /*patched=*/{}, /*aslr=*/0, /*hardening=*/0.0, /*cost=*/1.0});
    cat.add_variant({"os.win_patched", ComponentKind::kOs, "windows",
                     patch_sibling(win, seed, 11), {101, 102}, 8, 0.1, 1.2});
    cat.add_variant({"os.linux_lts", ComponentKind::kOs, "linux", lin,
                     {101}, 16, 0.2, 1.5});
    cat.add_variant({"os.rtos_micro", ComponentKind::kOs, "rtos", rtos,
                     {101, 102, 103}, 12, 0.5, 2.5});
  }

  // --- PLC firmware -------------------------------------------------------
  // CVE ids 200..299.
  {
    const Program s7 = family_binary(seed, ComponentKind::kPlcFirmware, 1);
    const Program abb = family_binary(seed, ComponentKind::kPlcFirmware, 2);
    cat.add_variant({"plc.s7_stock", ComponentKind::kPlcFirmware, "s7", s7,
                     {}, 0, 0.0, 1.0});
    cat.add_variant({"plc.s7_updated", ComponentKind::kPlcFirmware, "s7",
                     patch_sibling(s7, seed, 21), {201}, 0, 0.1, 1.1});
    cat.add_variant({"plc.s7_multicompiled", ComponentKind::kPlcFirmware, "s7",
                     multicompiled(s7, seed, 22), {}, 6, 0.2, 1.8});
    cat.add_variant({"plc.abb_ac800", ComponentKind::kPlcFirmware, "abb", abb,
                     {201, 202}, 4, 0.4, 2.2});
  }

  // --- Protocol stacks ----------------------------------------------------
  // CVE ids 300..399.
  {
    const Program mb = family_binary(seed, ComponentKind::kProtocolStack, 1);
    const Program dnp = family_binary(seed, ComponentKind::kProtocolStack, 2);
    cat.add_variant({"proto.modbus_stock", ComponentKind::kProtocolStack, "modbus",
                     mb, {}, 0, 0.0, 1.0});
    cat.add_variant({"proto.modbus_hardened", ComponentKind::kProtocolStack, "modbus",
                     patch_sibling(mb, seed, 31), {301}, 8, 0.3, 1.4});
    cat.add_variant({"proto.dnp3_secure", ComponentKind::kProtocolStack, "dnp3",
                     dnp, {301, 302}, 8, 0.5, 2.0});
  }

  // --- HMI software ---------------------------------------------------------
  // CVE ids 400..499.
  {
    const Program hmi1 = family_binary(seed, ComponentKind::kHmiSoftware, 1);
    const Program hmi2 = family_binary(seed, ComponentKind::kHmiSoftware, 2);
    cat.add_variant({"hmi.wincc_like", ComponentKind::kHmiSoftware, "wincc", hmi1,
                     {}, 0, 0.0, 1.0});
    cat.add_variant({"hmi.open_scada", ComponentKind::kHmiSoftware, "openscada",
                     hmi2, {401}, 12, 0.3, 1.3});
  }

  // --- Firewall firmware ----------------------------------------------------
  // CVE ids 500..599.
  {
    const Program fw1 = family_binary(seed, ComponentKind::kFirewallFirmware, 1);
    const Program fw2 = family_binary(seed, ComponentKind::kFirewallFirmware, 2);
    cat.add_variant({"fw.stock", ComponentKind::kFirewallFirmware, "stock", fw1,
                     {}, 0, 0.0, 1.0});
    cat.add_variant({"fw.ngfw", ComponentKind::kFirewallFirmware, "ngfw", fw2,
                     {501}, 8, 0.4, 1.9});
  }

  // --- Historian database -----------------------------------------------------
  // CVE ids 600..699.
  {
    const Program h1 = family_binary(seed, ComponentKind::kHistorianDb, 1);
    const Program h2 = family_binary(seed, ComponentKind::kHistorianDb, 2);
    cat.add_variant({"hist.sql_classic", ComponentKind::kHistorianDb, "sql", h1,
                     {}, 0, 0.0, 1.0});
    cat.add_variant({"hist.tsdb_modern", ComponentKind::kHistorianDb, "tsdb", h2,
                     {601}, 12, 0.2, 1.4});
  }

  return cat;
}

}  // namespace divsec::divers
