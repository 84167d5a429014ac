// Property-based tests for the procedural scenario families
// (scenario/family_spec.h): hundreds of random FamilySpecs, each checked
// against the invariants every family guarantees —
//
//   * node-count exactness: generate() hits spec.nodes exactly;
//   * connectivity: one component (malware reachability analysis and the
//     campaign kernel both assume it);
//   * liveness: >= 1 USB-exposed node (entry), >= 1 engineering station,
//     >= 1 PLC per site (targets);
//   * zone monotonicity: purdue-deep and hub-spoke wire only
//     zone-adjacent links; brownfield violates exactly when it has
//     legacy sites; mesh-flat is exempt by design (its point is the
//     absence of segmentation);
//   * canonical idempotence: parse(canonical()) round-trips;
//   * determinism: same (spec, seed) -> bit-identical topology, on one
//     thread and across 8 concurrent threads;
//   * fingerprint sensitivity: specs differing in exactly one field
//     produce different sweep fingerprints (the re-expansion contract's
//     collision guard), and golden digests pin the expansion bytes
//     across processes and compilers.
//
// The file also replays seeded mutations of in-tree inputs through every
// text parser (ParserMutation).
//
// The random-spec seed base rotates in CI (DIVSEC_FAMILY_SEED_BASE,
// derived from the run number and echoed below) so successive runs
// explore fresh corners of the spec space while any failure stays
// reproducible locally by exporting the echoed value.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "attack/threat.h"
#include "dist/cost_model.h"
#include "dist/sweep.h"
#include "obs/metrics.h"
#include "scenario/family_spec.h"
#include "scenario/presets.h"
#include "scenario/scenario_builder.h"
#include "scenario/topology_generator.h"
#include "stats/rng.h"

namespace divsec::scenario {
namespace {

using net::NodeId;
using net::Role;
using net::Zone;

constexpr std::size_t kRandomSpecs = 220;

std::uint64_t seed_base() {
  static const std::uint64_t base = [] {
    std::uint64_t b = 20130808;  // fixed default outside CI
    if (const char* env = std::getenv("DIVSEC_FAMILY_SEED_BASE"))
      b = std::strtoull(env, nullptr, 10);
    std::printf("family-properties seed base = %llu "
                "(export DIVSEC_FAMILY_SEED_BASE=%llu to reproduce)\n",
                static_cast<unsigned long long>(b),
                static_cast<unsigned long long>(b));
    return b;
  }();
  return base;
}

/// FNV-1a over every observable field of the topology: the "bit for bit"
/// in the determinism contract, cheap enough to run hundreds of times.
std::uint64_t topology_digest(const net::Topology& t) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_str = [&](const std::string& s) {
    for (const char c : s) mix(static_cast<std::uint8_t>(c));
    mix(0xff);  // length delimiter
  };
  mix(t.node_count());
  for (NodeId i = 0; i < t.node_count(); ++i) {
    const net::Node& n = t.node(i);
    mix_str(n.name);
    mix(static_cast<std::uint64_t>(n.zone));
    mix(static_cast<std::uint64_t>(n.role));
    mix(n.usb_exposure ? 1 : 0);
  }
  mix(t.link_count());
  for (const net::Link& l : t.links()) {
    mix(l.a);
    mix(l.b);
  }
  return h;
}

/// A random spec drawn from the whole parameter space, rejection-sampled
/// to feasibility (validate() throwing means the node budget cannot fit
/// the requested sites/depth — skip, don't shrink).
FamilySpec random_spec(stats::Rng& rng) {
  for (;;) {
    FamilySpec spec;
    spec.family = static_cast<TopologyFamily>(rng.below(kTopologyFamilyCount));
    spec.nodes = kMinFamilyNodes + rng.below(600);
    spec.sites = rng.below(4) == 0 ? rng.below(12) : 0;  // mostly auto
    spec.depth = rng.below(5);
    spec.density = rng.uniform();
    spec.segmentation = rng.uniform();
    spec.usb_fraction = rng.uniform();
    try {
      spec.validate();
      return spec;
    } catch (const std::invalid_argument&) {
      // infeasible corner (e.g. 16 nodes, 11 sites): draw again
    }
  }
}

bool connected(const net::Topology& t) {
  if (t.node_count() == 0) return false;
  std::vector<char> seen(t.node_count(), 0);
  std::vector<NodeId> stack{0};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    for (const NodeId m : t.neighbors(n)) {
      if (seen[m]) continue;
      seen[m] = 1;
      ++visited;
      stack.push_back(m);
    }
  }
  return visited == t.node_count();
}

/// Purdue level of a zone: corporate 0, DMZ 1, control 2, field 3.
int zone_level(Zone z) { return static_cast<int>(z); }

std::size_t zone_violations(const net::Topology& t) {
  std::size_t v = 0;
  for (const net::Link& l : t.links()) {
    const int da = zone_level(t.node(l.a).zone);
    const int db = zone_level(t.node(l.b).zone);
    if (da > db + 1 || db > da + 1) ++v;
  }
  return v;
}

std::size_t count_usb(const net::Topology& t) {
  std::size_t n = 0;
  for (NodeId i = 0; i < t.node_count(); ++i)
    if (t.node(i).usb_exposure) ++n;
  return n;
}

/// Whether a brownfield spec has any legacy (unsegmented) site — the
/// exact condition under which zone violations may exist.
bool has_legacy_sites(const FamilySpec& spec) {
  const std::size_t sites = spec.budget().sites;
  const auto segmented =
      static_cast<std::size_t>(spec.segmentation * static_cast<double>(sites));
  return segmented < sites;
}

/// Every node's name finds that node through the topology's name table,
/// and names the table does not hold are refused.
void expect_names_round_trip(const net::Topology& t, const std::string& label) {
  for (NodeId i = 0; i < t.node_count(); ++i)
    ASSERT_EQ(t.node_by_name(t.node(i).name), i) << label << " node " << i;
  for (const std::string& unknown :
       {std::string(), std::string("no.such.node"), t.node(0).name + "#"})
    EXPECT_THROW((void)t.node_by_name(unknown), std::out_of_range)
        << label << " '" << unknown << "'";
}

TEST(FamilyProperties, RandomSpecsHoldEveryInvariant) {
  stats::Rng rng(seed_base());
  for (std::size_t i = 0; i < kRandomSpecs; ++i) {
    const FamilySpec spec = random_spec(rng);
    const std::uint64_t seed = rng();
    const std::string label =
        spec.canonical() + " seed=" + std::to_string(seed);

    const TopologyGenerator gen(spec);
    const net::Topology t = gen.generate(seed);

    // Node-count exactness.
    EXPECT_EQ(t.node_count(), spec.nodes) << label;

    // Connectivity.
    EXPECT_TRUE(connected(t)) << label;

    // Liveness: an entry point, an engineering station, PLC targets.
    EXPECT_GE(count_usb(t), 1u) << label;
    EXPECT_GE(t.nodes_with_role(Role::kEngineering).size(), 1u) << label;
    EXPECT_GE(t.nodes_with_role(Role::kPlc).size(), 1u) << label;

    // Zone monotonicity, per family contract.
    const std::size_t violations = zone_violations(t);
    switch (spec.family) {
      case TopologyFamily::kPurdueDeep:
      case TopologyFamily::kHubSpoke:
        EXPECT_EQ(violations, 0u) << label;
        break;
      case TopologyFamily::kBrownfield:
        if (has_legacy_sites(spec))
          EXPECT_GE(violations, 1u) << label;  // the legacy uplinks
        else
          EXPECT_EQ(violations, 0u) << label;
        break;
      case TopologyFamily::kMeshFlat:
        break;  // un-segmentation is the family's point
    }

    // Canonical idempotence: one spelling per spec, and it re-expands.
    const std::string canon = spec.canonical();
    const FamilySpec reparsed = FamilySpec::parse(canon);
    EXPECT_EQ(reparsed.canonical(), canon) << label;
    EXPECT_EQ(topology_digest(TopologyGenerator(reparsed).generate(seed)),
              topology_digest(t))
        << label;

    // Determinism: a second expansion is bit-identical.
    EXPECT_EQ(topology_digest(gen.generate(seed)), topology_digest(t)) << label;

    // Name round trip through the topology's name table.
    expect_names_round_trip(t, label);
  }
}

TEST(FamilyProperties, NodeNamesRoundTripThroughTheNameTable) {
  // RandomSpecsHoldEveryInvariant checks small random specs; here each
  // family at a few thousand nodes, and enterprise fleets from the
  // smallest preset to 16384 nodes.
  for (const char* family : {"purdue-deep", "mesh-flat", "hub-spoke", "brownfield"}) {
    const std::string spec = std::string(family) + ":nodes=4096";
    expect_names_round_trip(TopologyGenerator(FamilySpec::parse(spec)).generate(2013),
                            spec);
  }
  for (const std::size_t nodes : {kMinEnterpriseNodes, std::size_t{1000}, std::size_t{16384}})
    expect_names_round_trip(TopologyGenerator(enterprise_spec(nodes)).generate(2013),
                            "enterprise" + std::to_string(nodes));
}

TEST(FamilyProperties, ConcurrentGenerationIsBitIdentical) {
  // 8 threads expanding the same (spec, seed) must agree bit for bit —
  // the generator shares no mutable state. One spec per family.
  stats::Rng rng(seed_base() ^ 0x74687265616473ull);
  for (std::size_t f = 0; f < kTopologyFamilyCount; ++f) {
    FamilySpec spec;
    for (;;) {  // random spec of THIS family
      spec = random_spec(rng);
      if (static_cast<std::size_t>(spec.family) == f) break;
    }
    const std::uint64_t seed = rng();
    const std::uint64_t reference =
        topology_digest(TopologyGenerator(spec).generate(seed));

    constexpr std::size_t kThreads = 8;
    std::vector<std::uint64_t> digests(kThreads, 0);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t i = 0; i < kThreads; ++i)
      threads.emplace_back([&, i] {
        digests[i] = topology_digest(TopologyGenerator(spec).generate(seed));
      });
    for (auto& th : threads) th.join();
    for (std::size_t i = 0; i < kThreads; ++i)
      EXPECT_EQ(digests[i], reference) << spec.canonical() << " thread " << i;
  }
}

TEST(FamilyProperties, SeedChangesTheWiring) {
  // Specs with enough randomized structure that two seeds cannot
  // collapse to the same fleet: seeded USB draws, seeded uplinks, chords.
  const char* specs[] = {
      "purdue-deep:nodes=256,usb=0.5",
      "mesh-flat:nodes=128,density=0.4",
      "hub-spoke:nodes=256,usb=0.5",
      "brownfield:nodes=256,segmentation=0.4,density=0.5",
  };
  for (const char* s : specs) {
    const TopologyGenerator gen(FamilySpec::parse(s));
    EXPECT_NE(topology_digest(gen.generate(1)), topology_digest(gen.generate(2)))
        << s;
  }
}

TEST(FamilyProperties, GoldenDigestsPinTheExpansionBytes) {
  // One fixed (spec, seed) per family with its expected digest: catches
  // any change to generation order, naming, wiring or RNG consumption —
  // exactly what would silently break cross-process shard re-expansion.
  // If a change is intentional, it must bump kFamilySpecVersion (the
  // canonical prefix) and these values together.
  struct Golden {
    const char* spec;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Golden goldens[] = {
      {"purdue-deep:nodes=128,depth=3", 2013, 0x6e30154482c59436ull},
      {"mesh-flat:nodes=96,density=0.25", 2013, 0x876aad4d80b352fbull},
      {"hub-spoke:nodes=192,sites=6", 2013, 0xeac69e9228886c76ull},
      {"brownfield:nodes=160,segmentation=0.5", 2013, 0x83859ab0c304492full},
  };
  for (const Golden& g : goldens) {
    const net::Topology t =
        TopologyGenerator(FamilySpec::parse(g.spec)).generate(g.seed);
    EXPECT_EQ(topology_digest(t), g.digest) << g.spec;
  }
}

TEST(FamilySpecParsing, CanonicalFormAndSpellingVariants) {
  // Bare family name, parameterized, and full canonical prefix all land
  // on the same canonical string.
  const std::string canon = FamilySpec::parse("purdue-deep").canonical();
  EXPECT_EQ(canon,
            "familyv1:purdue-deep:nodes=256,sites=5,depth=2,density=0.15,"
            "segmentation=0.5,usb=0.35");
  EXPECT_EQ(FamilySpec::parse(canon).canonical(), canon);
  // Explicit defaults and auto-resolved sites spell identically.
  EXPECT_EQ(FamilySpec::parse("purdue-deep:nodes=256,sites=5").canonical(),
            canon);

  EXPECT_TRUE(FamilySpec::is_family_name("brownfield"));
  EXPECT_TRUE(FamilySpec::is_family_name("familyv1:mesh-flat:nodes=64"));
  EXPECT_TRUE(FamilySpec::is_family_name("familyv9:whatever"));  // parse()'s error
  EXPECT_FALSE(FamilySpec::is_family_name("enterprise256"));
  EXPECT_FALSE(FamilySpec::is_family_name("plant_small"));

  // Unknown version / family / key / value all throw with listings.
  EXPECT_THROW((void)FamilySpec::parse("familyv9:purdue-deep"), std::invalid_argument);
  EXPECT_THROW((void)FamilySpec::parse("campus-grid"), std::invalid_argument);
  EXPECT_THROW((void)FamilySpec::parse("mesh-flat:fanout=3"), std::invalid_argument);
  EXPECT_THROW((void)FamilySpec::parse("mesh-flat:density=lots"), std::invalid_argument);
  EXPECT_THROW((void)FamilySpec::parse("mesh-flat:density=1.5"), std::invalid_argument);
  try {
    (void)FamilySpec::parse("campus-grid");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("purdue-deep"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("brownfield"), std::string::npos);
  }

  // JSON intake: same spec, same canonical form.
  const FamilySpec js = FamilySpec::from_json(
      "{\"family\": \"purdue-deep\", \"nodes\": 256, \"sites\": 5}");
  EXPECT_EQ(js.canonical(), canon);
  EXPECT_THROW((void)FamilySpec::from_json("{\"nodes\": 64}"), std::invalid_argument);
  EXPECT_THROW((void)FamilySpec::from_json("not json"), std::invalid_argument);
}

TEST(FamilySpecParsing, NulBytesAndNegativeZeroHaveNoSpelling) {
  // Bytes after an embedded NUL used to be ignored, and -0 used to
  // canonicalize to "-0", a second spelling (and fingerprint) of 0.
  EXPECT_THROW((void)FamilySpec::parse(std::string("mesh-flat:nodes=128\0x", 21)),
               std::invalid_argument);
  const std::string zero = FamilySpec::parse("mesh-flat:density=0").canonical();
  EXPECT_EQ(FamilySpec::parse("mesh-flat:density=-0").canonical(), zero);
  EXPECT_EQ(FamilySpec::from_json("{\"family\": \"mesh-flat\", \"density\": -0}")
                .canonical(),
            zero);
  // Auto sites (nodes/48) above the sites bound used to pass validation
  // and canonicalize to a sites= value that does not parse back (found
  // by the mutation replayer).
  EXPECT_THROW((void)FamilySpec::parse("brownfield:nodes=500000"), std::invalid_argument);
  EXPECT_THROW((void)FamilySpec::from_json("{\"family\": \"brownfield\", \"nodes\": 510072}"),
               std::invalid_argument);
  const std::string big = FamilySpec::parse("brownfield:nodes=500000,sites=4096").canonical();
  EXPECT_EQ(FamilySpec::parse(big).canonical(), big);
}

TEST(FamilySpecParsing, PresetRegistryIntegration) {
  EXPECT_NO_THROW((void)resolve_preset_name("brownfield"));
  EXPECT_NO_THROW((void)resolve_preset_name("hub-spoke:nodes=128"));
  EXPECT_THROW((void)resolve_preset_name("hub-spoke:nodes=7"),  // infeasible
               std::invalid_argument);
  EXPECT_EQ(resolve_preset_name("enterprise64"), "enterprise64");
  // One spelling per enterprise preset: leading zeros name the same
  // fleet, so they resolve to the same name and sweep fingerprint.
  EXPECT_EQ(resolve_preset_name("enterprise0256"), "enterprise256");
  const auto fingerprint_of = [](const std::string& preset) {
    dist::SweepSpec spec;
    spec.preset = preset;
    spec.replications = 64;
    return dist::sweep_fingerprint(dist::make_meta(spec));
  };
  EXPECT_EQ(fingerprint_of("enterprise0256"), fingerprint_of("enterprise256"));
  EXPECT_EQ(resolve_preset_name("brownfield"),
            FamilySpec::parse("brownfield").canonical());
  // The unknown-preset error lists presets AND families.
  try {
    (void)resolve_preset_name("campus");
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scope_cooling"), std::string::npos);
    EXPECT_NE(what.find("enterprise{N}"), std::string::npos);
    EXPECT_NE(what.find("mesh-flat"), std::string::npos);
  }

  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const GeneratedScenario sc = make_preset("hub-spoke:nodes=64", cat, 7);
  EXPECT_EQ(sc.scenario.topology.node_count(), 64u);
  EXPECT_EQ(sc.name, FamilySpec::parse("hub-spoke:nodes=64").canonical());
  EXPECT_NO_THROW(sc.scenario.validate(cat));
}

TEST(FingerprintSensitivity, OneFieldMutationsChangeTheFingerprint) {
  // The satellite regression: two specs differing in exactly one field
  // must fingerprint differently, or shard merges could silently mix
  // sweeps. Exercised through the real make_meta -> sweep_fingerprint
  // path a shard state records.
  const auto fingerprint_of = [](const std::string& preset,
                                 const std::string& threat) {
    dist::SweepSpec spec;
    spec.preset = preset;
    spec.threat = threat;
    spec.replications = 64;
    return dist::sweep_fingerprint(dist::make_meta(spec));
  };

  const std::string base = "brownfield:nodes=256,sites=4,depth=2,density=0.2,"
                           "segmentation=0.5,usb=0.4";
  const std::uint64_t fp = fingerprint_of(base, "stuxnet");
  const char* mutations[] = {
      "hub-spoke:nodes=256,sites=4,depth=2,density=0.2,segmentation=0.5,usb=0.4",
      "brownfield:nodes=255,sites=4,depth=2,density=0.2,segmentation=0.5,usb=0.4",
      "brownfield:nodes=256,sites=5,depth=2,density=0.2,segmentation=0.5,usb=0.4",
      "brownfield:nodes=256,sites=4,depth=3,density=0.2,segmentation=0.5,usb=0.4",
      "brownfield:nodes=256,sites=4,depth=2,density=0.21,segmentation=0.5,usb=0.4",
      "brownfield:nodes=256,sites=4,depth=2,density=0.2,segmentation=0.51,usb=0.4",
      "brownfield:nodes=256,sites=4,depth=2,density=0.2,segmentation=0.5,usb=0.41",
  };
  for (const char* m : mutations)
    EXPECT_NE(fingerprint_of(m, "stuxnet"), fp) << m;

  // The threat axis is fingerprint material too...
  EXPECT_NE(fingerprint_of(base, "stuxnet:scan=2"), fp);
  EXPECT_NE(fingerprint_of(base, "duqu"), fp);
  // ...but canonicalization folds spelling variants together: explicit
  // defaults, the familyv1 prefix, and identity tunings are the same
  // sweep.
  EXPECT_EQ(fingerprint_of(base, "stuxnet:scan=1"), fp);
  EXPECT_EQ(fingerprint_of(FamilySpec::parse(base).canonical(), "stuxnet"), fp);
}

TEST(ThreatTuning, SpecsParseCanonicalizeAndTuneTheProfile) {
  using attack::ThreatTuning;
  EXPECT_EQ(attack::canonical_threat_spec("stuxnet"), "stuxnet");
  EXPECT_EQ(attack::canonical_threat_spec("stuxnet:scan=1,entry=1"), "stuxnet");
  EXPECT_EQ(attack::canonical_threat_spec(
                "stuxnet:channels=usb+http,scan=2.0,dwell=0.5"),
            "stuxnet:scan=2,dwell=0.5,channels=usb+http");

  const attack::ThreatProfile base = attack::ThreatProfile::stuxnet();
  const attack::ThreatProfile tuned = attack::threat_profile_from_spec(
      "stuxnet:scan=2,entry=1.5,payload=2,dwell=0.5,stealth=0.8,"
      "channels=usb+modbus");
  EXPECT_DOUBLE_EQ(tuned.propagation_rate, base.propagation_rate * 2.0);
  EXPECT_DOUBLE_EQ(tuned.entry_rate, base.entry_rate * 1.5);
  EXPECT_DOUBLE_EQ(tuned.payload_rate, base.payload_rate * 2.0);
  EXPECT_DOUBLE_EQ(tuned.sabotage_mean_hours, base.sabotage_mean_hours * 0.5);
  EXPECT_DOUBLE_EQ(tuned.stealth, 0.8);
  ASSERT_EQ(tuned.channels.size(), 2u);
  EXPECT_EQ(tuned.channels[0], net::Channel::kUsb);
  EXPECT_EQ(tuned.channels[1], net::Channel::kModbus);
  EXPECT_EQ(tuned.name, attack::canonical_threat_spec(
                            "stuxnet:scan=2,entry=1.5,payload=2,dwell=0.5,"
                            "stealth=0.8,channels=usb+modbus"));

  EXPECT_THROW((void)attack::threat_profile_from_spec("mirai"), std::invalid_argument);
  EXPECT_THROW((void)attack::threat_profile_from_spec("stuxnet:scan=0"),
               std::invalid_argument);
  EXPECT_THROW((void)attack::threat_profile_from_spec("stuxnet:stealth=1"),
               std::invalid_argument);
  EXPECT_THROW((void)attack::threat_profile_from_spec("stuxnet:channels=carrier-pigeon"),
               std::invalid_argument);
  // Inputs that used to parse: bytes after an embedded NUL and
  // non-finite values (both found by the mutation replayer below), and
  // stealth=-0, a second canonical spelling of stealth=0.
  EXPECT_THROW((void)ThreatTuning::parse(std::string("stuxnet:scan=2\0x", 16)),
               std::invalid_argument);
  EXPECT_THROW((void)ThreatTuning::parse("stuxnet:dwell=1e999"), std::invalid_argument);
  EXPECT_THROW((void)ThreatTuning::parse("stuxnet:scan=inf"), std::invalid_argument);
  EXPECT_THROW((void)ThreatTuning::parse("stuxnet:stealth=nan"), std::invalid_argument);
  EXPECT_EQ(attack::canonical_threat_spec("stuxnet:stealth=-0"), "stuxnet:stealth=0");
  // Tempo factors are capped at 10^3: at 1e300 a replication never ends.
  for (const char* spec : {"stuxnet:scan=1e300", "stuxnet:entry=1e300",
                           "stuxnet:payload=1e300", "stuxnet:scan=1000.5"})
    EXPECT_THROW((void)ThreatTuning::parse(spec), std::invalid_argument) << spec;
  EXPECT_EQ(attack::canonical_threat_spec("stuxnet:scan=1e3,entry=1e3,payload=1e3"),
            "stuxnet:scan=1e+03,entry=1e+03,payload=1e+03");
  attack::ThreatProfile nan_stealth = base;
  nan_stealth.stealth = std::nan("");
  EXPECT_THROW(nan_stealth.validate(), std::invalid_argument);
  try {
    (void)attack::threat_profile_from_spec("mirai");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stuxnet"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("flame"), std::string::npos);
  }
}

// ---- Parser mutation replay ------------------------------------------------
//
// One seeded replayer over every text parser. Each mutant of an in-tree
// input must either throw the parser's documented exception type or
// meet the parser's canonical property:
//   * specs: canonical(parse(canonical(parse(s)))) == canonical(parse(s));
//   * sidecars: metrics_json(parse(x)) is a fixed point, nothing may
//     follow the object, and no metric name appears twice;
//   * task plans: encode(decode(x)) == x, byte for byte.

/// Spec-, JSON- and plan-shaped fragments for insertions: number
/// spellings strtod or a lax reader would take, separators, key and
/// channel names, and a NUL byte, so mutants get past the tokenizers
/// into the value readers.
const std::string kFragments[] = {
    "inf", "nan", "-0", "1e-320", "1e308", "1e300", "0x1p3", "007", "+02",
    "18446744073709551616", " ", "\t", "\n", ",", "=", "+", ":", ".", "e",
    "-", "\"", "{", "}", "[", "]", "0", "A", "scan=", "stealth=",
    "channels=", "usb", "duqu", "nodes=", "density=", "familyv1:",
    "\"nodes\": ", "\"family\": ", "shard ", std::string(1, '\0'),
};

/// One to three stacked mutations of a seed: bit flip, byte overwrite,
/// truncation, insertion (random bytes or a fragment) or deletion.
std::string mutate(std::string s, stats::Rng& rng) {
  for (std::uint64_t k = 1 + rng.below(3); k > 0; --k) {
    const std::size_t at = rng.below(s.size() + 1);
    const bool inside = at < s.size();
    switch (rng.below(5)) {
      case 0:  // bit flip
        if (inside) s[at] = static_cast<char>(s[at] ^ (1 << rng.below(8)));
        break;
      case 1:  // byte overwrite
        if (inside) s[at] = static_cast<char>(rng.below(256));
        break;
      case 2:  // truncation
        s.resize(at);
        break;
      case 3:  // insertion: 1-4 random bytes, or one fragment
        if (rng.below(2)) {
          s.insert(at, kFragments[rng.below(std::size(kFragments))]);
        } else {
          for (std::uint64_t n = 1 + rng.below(4); n > 0; --n)
            s.insert(s.begin() + static_cast<std::ptrdiff_t>(at),
                     static_cast<char>(rng.below(256)));
        }
        break;
      default:  // deletion of 1-8 bytes
        s.erase(at, 1 + rng.below(8));
    }
  }
  return s;
}

/// Parses `input` and, if that succeeds, runs `check` on the input and
/// the result. Returns false when the parse throws the parser's
/// documented type. Only the first parse may reject: `check` runs
/// outside the try, so any exception from it, including one from
/// re-parsing the canonical form, escapes to the replayer and fails it.
template <class Documented, class Parse, class Check>
bool parse_then_check(const std::string& input, Parse parse, Check check) {
  std::optional<std::invoke_result_t<Parse, const std::string&>> parsed;
  try {
    parsed.emplace(parse(input));
  } catch (const Documented&) {
    return false;
  }
  check(input, *parsed);
  return true;
}

void check_threat_spec(const std::string& spec, const attack::ThreatTuning& t) {
  // No spec token contains a NUL byte, so no spec that has one parses.
  EXPECT_EQ(spec.find('\0'), std::string::npos);
  for (const double f : {t.scan, t.entry, t.payload})
    EXPECT_TRUE(f > 0.0 && f <= 1e3) << "tempo factor " << f;
  const std::string canonical = t.canonical();
  EXPECT_EQ(attack::canonical_threat_spec(canonical), canonical);
  EXPECT_EQ(canonical.find("=-"), std::string::npos) << canonical;
  attack::ThreatProfile p;
  try {
    p = t.profile();
  } catch (const std::invalid_argument&) {
    return;  // a tuning may drive a rate out of range; profile() says so
  }
  EXPECT_EQ(p.name, canonical);
  for (const double rate : {p.entry_rate, p.activation_rate, p.privesc_rate,
                            p.propagation_rate, p.payload_rate,
                            p.sabotage_mean_hours})
    EXPECT_TRUE(std::isfinite(rate) && rate > 0.0) << "rate " << rate;
  EXPECT_TRUE(p.stealth >= 0.0 && p.stealth < 1.0);
}

void check_family_canonical(const std::string&, const FamilySpec& spec) {
  const std::string canonical = spec.canonical();
  EXPECT_EQ(FamilySpec::parse(canonical).canonical(), canonical);
  // Every field is non-negative, so "-" (as in "-0") has no place in it.
  EXPECT_EQ(canonical.find("=-"), std::string::npos) << canonical;
}

void check_sidecar(const std::string& text, const obs::Snapshot& snap) {
  const std::string json = obs::metrics_json(snap);
  EXPECT_EQ(obs::metrics_json(obs::parse_metrics_json(json)), json);
  const auto strictly_sorted = [](const auto& v) {
    for (std::size_t i = 1; i < v.size(); ++i)
      if (!(v[i - 1].name < v[i].name)) return false;
    return true;
  };
  EXPECT_TRUE(strictly_sorted(snap.counters));
  EXPECT_TRUE(strictly_sorted(snap.gauges));
  EXPECT_TRUE(strictly_sorted(snap.histograms));
  EXPECT_THROW((void)obs::parse_metrics_json(text + "}"), std::runtime_error);
}

void check_task_plan(const std::string& text, const dist::TaskPlan& plan) {
  EXPECT_EQ(dist::encode_task_plan(plan), text);
}

obs::Snapshot sidecar_fixture() {
  obs::Snapshot snap;
  snap.counters.push_back({"a.count", 42});
  snap.counters.push_back({"b.count", ~std::uint64_t{0}});
  snap.gauges.push_back({"a.peak", 7});
  obs::HistogramValue h;
  h.name = "a.hist";
  h.count = 3;
  h.sum = 1002;
  h.buckets[0] = 1;
  h.buckets[1] = 1;
  h.buckets[10] = 1;
  snap.histograms.push_back(h);
  return snap;
}

dist::TaskPlan plan_fixture(std::vector<std::vector<std::uint64_t>> shards) {
  dist::TaskPlan plan;
  plan.fingerprint = 0xDEADBEEFCAFEF00DULL;
  plan.shards = std::move(shards);
  return plan;
}

/// The replayer's table: each parser, its in-tree seeds, and `accepts`,
/// which returns false when the parser rejects the input with its
/// documented type and otherwise checks the canonical property.
struct ParserTarget {
  const char* name;
  std::vector<std::string> seeds;
  bool (*accepts)(const std::string&);
};

const std::vector<ParserTarget>& parser_targets() {
  static const std::vector<ParserTarget> targets = {
      {"ThreatTuning::parse",
       {"stuxnet", "stuxnet:scan=2,dwell=0.5,stealth=0.8,channels=usb+http",
        "stuxnet:channels=usb+http,scan=2.0,dwell=0.5",
        "stuxnet:scan=2,entry=1.5,payload=2,dwell=0.5,stealth=0.8,"
        "channels=usb+modbus",
        "stuxnet:scan=1,entry=1", "stuxnet:scan=1.5", "stuxnet:stealth=-0",
        "stuxnet:channels=carrier-pigeon"},
       [](const std::string& s) {
         return parse_then_check<std::invalid_argument>(
             s, [](const std::string& x) { return attack::ThreatTuning::parse(x); },
             check_threat_spec);
       }},
      {"FamilySpec::parse",
       {"purdue-deep", "hub-spoke:nodes=128", "mesh-flat:nodes=64",
        "familyv1:purdue-deep:nodes=256,sites=5,depth=2,density=0.15,"
        "segmentation=0.5,usb=0.35",
        "brownfield:nodes=256,sites=4,depth=2,density=0.2,segmentation=0.5,"
        "usb=0.4",
        "mesh-flat:density=-0"},
       [](const std::string& s) {
         return parse_then_check<std::invalid_argument>(
             s, [](const std::string& x) { return FamilySpec::parse(x); },
             check_family_canonical);
       }},
      {"FamilySpec::from_json",
       {"{\"family\": \"purdue-deep\", \"nodes\": 256, \"sites\": 5}",
        "{\"family\": \"brownfield\", \"nodes\": 512, \"segmentation\": 0.75}",
        "{\"family\": \"mesh-flat\", \"nodes\": 64, \"density\": 0.2, \"usb\": 0.5}"},
       [](const std::string& s) {
         return parse_then_check<std::invalid_argument>(
             s, [](const std::string& x) { return FamilySpec::from_json(x); },
             check_family_canonical);
       }},
      {"obs::parse_metrics_json",
       {obs::metrics_json(sidecar_fixture()), obs::metrics_json(obs::Snapshot{})},
       [](const std::string& s) {
         return parse_then_check<std::runtime_error>(
             s, [](const std::string& x) { return obs::parse_metrics_json(x); },
             check_sidecar);
       }},
      {"dist::decode_task_plan",
       {dist::encode_task_plan(plan_fixture({{0, 2, 5}, {1, 3}, {4}})),
        dist::encode_task_plan(plan_fixture({{0, 1, 2, 3}})),
        dist::encode_task_plan(plan_fixture({{}, {0}}))},
       [](const std::string& s) {
         return parse_then_check<std::runtime_error>(
             s, [](const std::string& x) { return dist::decode_task_plan(x); },
             check_task_plan);
       }},
  };
  return targets;
}

void replay_parser_mutations(std::size_t per_parser, std::uint64_t seed) {
  stats::Rng rng(seed);
  for (const ParserTarget& target : parser_targets()) {
    std::size_t accepted = 0;
    // The seeds themselves first, then the mutants.
    for (std::size_t i = 0; i < target.seeds.size() + per_parser; ++i) {
      const std::string input =
          i < target.seeds.size()
              ? target.seeds[i]
              : mutate(target.seeds[rng.below(target.seeds.size())], rng);
      try {
        accepted += target.accepts(input);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "the parser threw an undocumented type, or the "
                         "canonical check threw: "
                      << e.what();
      }
      if (::testing::Test::HasFailure())
        FAIL() << target.name << " input " << i << " '" << input
               << "' is neither rejected nor canonical";
    }
    std::printf("%s: %zu of %zu inputs accepted\n", target.name, accepted,
                target.seeds.size() + per_parser);
    // Some mutations (a digit changed, a parameter dropped) are valid
    // inputs; the canonical check must have seen them.
    EXPECT_GT(accepted, target.seeds.size()) << target.name;
  }
}

TEST(ParserMutation, TenThousandSeededMutationsPerParser) {
  replay_parser_mutations(10'000, 0x7E2EA701);
}

// Nightly scale (nightly.yml runs it with --gtest_also_run_disabled_tests).
TEST(ParserMutation, DISABLED_OneMillionSeededMutationsPerParser) {
  replay_parser_mutations(1'000'000, 0x7E2EA702);
}

TEST(BalancedRotation, DealsEveryKindMaximallyEvenly) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const GeneratedScenario sc = make_preset(
      "purdue-deep:nodes=128", cat, 11, VariantPolicy::kBalancedRotation);
  // Every node draws an OS: per-variant counts differ by at most one.
  const std::size_t os_levels = cat.count(divers::ComponentKind::kOs);
  std::vector<std::size_t> counts(os_levels, 0);
  for (const auto& sw : sc.scenario.software) {
    ASSERT_LT(sw.os, os_levels);
    ++counts[sw.os];
  }
  std::size_t lo = counts[0], hi = counts[0];
  for (const std::size_t c : counts) {
    lo = c < lo ? c : lo;
    hi = c > hi ? c : hi;
  }
  EXPECT_LE(hi - lo, 1u);
  EXPECT_GE(lo, 1u);  // 128 nodes over a handful of variants: all used

  // Deterministic in the seed, and a policy the codec round-trips.
  const GeneratedScenario again = make_preset(
      "purdue-deep:nodes=128", cat, 11, VariantPolicy::kBalancedRotation);
  for (std::size_t i = 0; i < sc.scenario.software.size(); ++i)
    ASSERT_EQ(sc.scenario.software[i].os, again.scenario.software[i].os);
  EXPECT_EQ(std::string(to_string(VariantPolicy::kBalancedRotation)),
            "balanced-rotation");
}

TEST(FamilySweeps, TwoShardMergeMatchesInProcessByteForByte) {
  // The end-to-end re-expansion contract on a family spec: two shard
  // processes' worth of partials, merged, must equal the single-process
  // sweep — same CSV bytes, via the same code path divsec_sweep uses.
  dist::SweepSpec spec;
  spec.preset = "brownfield:nodes=48";
  spec.policies = {VariantPolicy::kMonoculture, VariantPolicy::kBalancedRotation};
  spec.threat = "stuxnet:scan=1.5";
  spec.replications = 96;

  const std::vector<core::IndicatorSummary> reference =
      dist::run_in_process(spec);
  const dist::ShardState s0 = dist::run_shard(spec, 0, 2);
  const dist::ShardState s1 = dist::run_shard(spec, 1, 2);
  const dist::MergeResult merged = dist::merge_shards({s0, s1});

  EXPECT_EQ(dist::sweep_csv(merged.meta, merged.summaries),
            dist::sweep_csv(merged.meta, reference));
  // The canonical preset and threat spellings are what the state records.
  EXPECT_EQ(merged.meta.preset, FamilySpec::parse("brownfield:nodes=48").canonical());
  EXPECT_EQ(merged.meta.threat, "stuxnet:scan=1.5");
}

}  // namespace
}  // namespace divsec::scenario
