#include "scenario/family_spec.h"

#include <stdexcept>
#include <string_view>

#include "util/strict_text.h"

namespace divsec::scenario {
namespace {

constexpr const char* kFamilyNames[kTopologyFamilyCount] = {
    "purdue-deep",
    "mesh-flat",
    "hub-spoke",
    "brownfield",
};

constexpr char kVersionPrefix[] = "familyv";

std::string joined_family_names() {
  std::string out;
  for (std::size_t i = 0; i < kTopologyFamilyCount; ++i) {
    if (i) out += ", ";
    out += kFamilyNames[i];
  }
  return out;
}

bool lookup_family(const std::string& name, TopologyFamily& out) {
  for (std::size_t i = 0; i < kTopologyFamilyCount; ++i) {
    if (name == kFamilyNames[i]) {
      out = static_cast<TopologyFamily>(i);
      return true;
    }
  }
  return false;
}

void apply_param(FamilySpec& spec, std::string_view key, std::string_view value) {
  const std::string what = "FamilySpec: parameter '" + std::string(key) + "'";
  if (key == "nodes") {
    spec.nodes = util::require_u64<std::invalid_argument>(value, what);
  } else if (key == "sites") {
    spec.sites = util::require_u64<std::invalid_argument>(value, what);
  } else if (key == "depth") {
    spec.depth = util::require_u64<std::invalid_argument>(value, what);
  } else if (key == "density") {
    spec.density = util::require_double<std::invalid_argument>(value, what);
  } else if (key == "segmentation") {
    spec.segmentation = util::require_double<std::invalid_argument>(value, what);
  } else if (key == "usb") {
    spec.usb_fraction = util::require_double<std::invalid_argument>(value, what);
  } else {
    throw std::invalid_argument(
        "FamilySpec: unknown parameter '" + std::string(key) +
        "' (known: nodes, sites, depth, density, segmentation, usb)");
  }
}

void check_fraction(const char* field, double v) {
  if (!(v >= 0.0 && v <= 1.0))
    throw std::invalid_argument(std::string("FamilySpec: ") + field +
                                " must be in [0,1], got " + util::format_double(v));
}

}  // namespace

const char* to_string(TopologyFamily f) noexcept {
  return kFamilyNames[static_cast<std::size_t>(f)];
}

std::vector<std::string> family_names() {
  return {kFamilyNames, kFamilyNames + kTopologyFamilyCount};
}

void FamilySpec::validate() const { (void)budget(); }

FamilyBudget FamilySpec::budget() const {
  if (nodes < kMinFamilyNodes || nodes > kMaxFamilyNodes)
    throw std::invalid_argument(
        "FamilySpec: nodes must be in [" + std::to_string(kMinFamilyNodes) + ", " +
        std::to_string(kMaxFamilyNodes) + "], got " + std::to_string(nodes));
  // The bound holds for the derived count too: canonical() spells it
  // out, and a spelled-out sites above the bound would not parse back.
  if (resolved_sites() > kMaxFamilySites)
    throw std::invalid_argument("FamilySpec: sites must be <= " +
                                std::to_string(kMaxFamilySites) + ", got " +
                                std::to_string(resolved_sites()) +
                                (sites == 0 ? " (nodes/48; set sites explicitly)" : ""));
  if (depth > kMaxFamilyDepth)
    throw std::invalid_argument("FamilySpec: depth must be <= " +
                                std::to_string(kMaxFamilyDepth) + ", got " +
                                std::to_string(depth));
  check_fraction("density", density);
  check_fraction("segmentation", segmentation);
  check_fraction("usb", usb_fraction);

  FamilyBudget b;
  b.sites = resolved_sites();

  if (family == TopologyFamily::kMeshFlat) {
    // The mesh has no backbone/site split: a 5-node named skeleton and a
    // role-cycled fill, all wired flat. kMinFamilyNodes covers it.
    return b;
  }

  switch (family) {
    case TopologyFamily::kPurdueDeep:
      // scada + eng + hmi + hist + one gateway per aggregation tier.
      b.site_skeleton = 4 + depth;
      break;
    case TopologyFamily::kHubSpoke:
      b.site_skeleton = 2;  // scada + eng; everything else lives at the hub
      break;
    case TopologyFamily::kBrownfield:
      b.site_skeleton = 4;  // scada + eng + hmi + hist
      break;
    case TopologyFamily::kMeshFlat:
      break;  // handled above
  }

  b.servers = nodes / 64 > 1 ? nodes / 64 : 1;
  if (family == TopologyFamily::kHubSpoke && b.servers < 2) b.servers = 2;
  b.dmz = (b.sites + 3) / 4;

  const std::size_t fixed = b.servers + b.dmz + b.sites * b.site_skeleton;
  // Feasibility: after the fixed skeleton there must be room for at
  // least one workstation and one PLC per site.
  if (nodes < fixed + b.sites + 1)
    throw std::invalid_argument(
        "FamilySpec: nodes=" + std::to_string(nodes) + " too small for " +
        std::to_string(b.sites) + " " + to_string(family) + " sites (needs >= " +
        std::to_string(fixed + b.sites + 1) + ")");

  const std::size_t remaining = nodes - fixed;
  std::size_t ws = remaining / (family == TopologyFamily::kHubSpoke ? 4 : 5);
  if (ws == 0) ws = 1;
  std::size_t plcs = remaining - ws;
  if (plcs < b.sites) {  // never leave a site without a PLC target
    ws = remaining - b.sites;
    plcs = b.sites;
  }
  b.workstations = ws;
  b.plcs = plcs;
  return b;
}

std::string FamilySpec::canonical() const {
  validate();
  std::string out = kVersionPrefix + std::to_string(kFamilySpecVersion) + ":";
  out += to_string(family);
  out += ":nodes=" + std::to_string(nodes);
  out += ",sites=" + std::to_string(resolved_sites());
  out += ",depth=" + std::to_string(depth);
  out += ",density=" + util::format_double(density);
  out += ",segmentation=" + util::format_double(segmentation);
  out += ",usb=" + util::format_double(usb_fraction);
  return out;
}

bool FamilySpec::is_family_name(const std::string& name) {
  const std::size_t colon = name.find(':');
  const std::string head = colon == std::string::npos ? name : name.substr(0, colon);
  if (head.rfind(kVersionPrefix, 0) == 0) return true;
  TopologyFamily f;
  return lookup_family(head, f);
}

FamilySpec FamilySpec::parse(const std::string& name) {
  std::string rest = name;

  // Optional version prefix. Unknown versions are a hard error: a newer
  // canonical string must not be silently reinterpreted under old field
  // semantics (it would change what the fingerprint means).
  if (rest.rfind(kVersionPrefix, 0) == 0) {
    const std::size_t colon = rest.find(':');
    const std::string ver = colon == std::string::npos ? rest : rest.substr(0, colon);
    const std::string want = kVersionPrefix + std::to_string(kFamilySpecVersion);
    if (ver != want)
      throw std::invalid_argument("FamilySpec: unsupported spec version '" + ver +
                                  "' (this build speaks " + want + ")");
    rest = colon == std::string::npos ? std::string() : rest.substr(colon + 1);
  }

  const std::size_t colon = rest.find(':');
  const std::string fam_name =
      colon == std::string::npos ? rest : rest.substr(0, colon);
  FamilySpec spec;
  if (!lookup_family(fam_name, spec.family))
    throw std::invalid_argument("FamilySpec: unknown family '" + fam_name +
                                "' (families: " + joined_family_names() + ")");

  if (colon != std::string::npos)
    for (const auto& [key, value] : util::key_values<std::invalid_argument>(
             std::string_view(rest).substr(colon + 1), "FamilySpec"))
      apply_param(spec, key, value);

  spec.validate();
  return spec;
}

// One flat object of string and number values, read through
// util::JsonReader: the narrow inverse the --family-json flag needs, not
// a general JSON library.
FamilySpec FamilySpec::from_json(const std::string& text) {
  util::JsonReader<std::invalid_argument> c{text, "FamilySpec"};
  FamilySpec spec;
  bool have_family = false;

  c.expect('{');
  if (!c.consume('}')) {
    do {
      const std::string key = c.string();
      c.expect(':');
      if (key == "family") {
        const std::string fam = c.string();
        if (!lookup_family(fam, spec.family))
          throw std::invalid_argument("FamilySpec: unknown family '" + fam +
                                      "' (families: " + joined_family_names() +
                                      ")");
        have_family = true;
      } else {
        apply_param(spec, key, c.number());
      }
    } while (c.consume(','));
    c.expect('}');
  }
  if (!c.at_end()) c.fail("trailing content after object");
  if (!have_family)
    throw std::invalid_argument(
        "FamilySpec: JSON spec needs a \"family\" key (families: " +
        joined_family_names() + ")");

  spec.validate();
  return spec;
}

bool operator==(const FamilySpec& a, const FamilySpec& b) noexcept {
  return a.family == b.family && a.nodes == b.nodes && a.sites == b.sites &&
         a.depth == b.depth && a.density == b.density &&
         a.segmentation == b.segmentation && a.usb_fraction == b.usb_fraction;
}

}  // namespace divsec::scenario
