// Parameterized property suites spanning modules: protocol framing
// robustness, SAN first-passage laws across delay distributions,
// campaign invariants across threat profiles and firewall policies, and
// transform semantics across transform kinds and program seeds.
#include <gtest/gtest.h>

#include <cmath>

#include "attack/campaign.h"
#include "divers/transforms.h"
#include "san/analysis.h"
#include "scada/protocol.h"

namespace divsec {
namespace {

// ---------------------------------------------------------------------------
// Protocol: random byte strings never crash the decoder, and anything the
// decoder accepts must round-trip to identical bytes.
class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzz, RandomFramesAreRejectedOrRoundTrip) {
  stats::Rng rng(GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = rng.below(16);
    std::vector<std::uint8_t> frame(len);
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.below(256));
    const auto req = scada::decode_request(frame);
    if (req.has_value()) {
      // Anything accepted must re-encode to the exact same frame (the
      // format is canonical).
      EXPECT_EQ(scada::encode_request(*req), frame);
    }
    const auto resp = scada::decode_response(frame);
    if (resp.has_value()) {
      EXPECT_EQ(scada::encode_response(*resp), frame);
    }
  }
}

TEST_P(ProtocolFuzz, SingleBitFlipsAreAlwaysDetected) {
  stats::Rng rng(GetParam() ^ 0xF00D);
  const scada::Request r{
      static_cast<std::uint8_t>(rng.below(256)),
      rng.bernoulli(0.5) ? scada::FunctionCode::kReadHoldingRegisters
                         : scada::FunctionCode::kWriteSingleRegister,
      static_cast<std::uint16_t>(rng.below(65536)),
      static_cast<std::uint16_t>(1 + rng.below(100))};
  const auto frame = scada::encode_request(r);
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto corrupted = frame;
      corrupted[byte] ^= static_cast<std::uint8_t>(1u << bit);
      const auto decoded = scada::decode_request(corrupted);
      // CRC-16 detects all single-bit errors.
      EXPECT_FALSE(decoded.has_value())
          << "byte " << byte << " bit " << bit << " slipped through";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// SAN: for a single enabled transition with delay distribution D, the
// first-passage time IS D: the Monte-Carlo mean must match D's mean.
struct DelayCase {
  const char* name;
  stats::Distribution dist;
};

class SanDelayLaw : public ::testing::TestWithParam<DelayCase> {};

TEST_P(SanDelayLaw, FirstPassageMeanMatchesDistributionMean) {
  san::SanModel m;
  const auto src = m.add_place("src", 1);
  const auto dst = m.add_place("dst", 0);
  const auto a = m.add_timed_activity("fire", GetParam().dist);
  m.add_input_arc(a, src);
  m.add_output_arc(a, dst);
  const auto fp = san::first_passage(
      m, [dst](const san::Marking& mk) { return mk[dst] >= 1; }, 1e6, 30000, 11);
  ASSERT_EQ(fp.censored, 0u);
  const double mean = GetParam().dist.mean();
  const double tol =
      0.01 * mean + 4.0 * std::sqrt(GetParam().dist.variance() / 30000.0);
  EXPECT_NEAR(fp.conditional_mean(), mean, tol) << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, SanDelayLaw,
    ::testing::Values(DelayCase{"exponential", stats::Exponential{0.5}}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Campaign invariants across (threat profile, firewall policy).
struct CampaignCase {
  const char* name;
  int profile;   // 0 stuxnet, 1 duqu, 2 flame
  bool permissive_firewall;
};

class CampaignInvariants : public ::testing::TestWithParam<CampaignCase> {
 protected:
  static attack::ThreatProfile profile_of(int id) {
    switch (id) {
      case 1: return attack::ThreatProfile::duqu();
      case 2: return attack::ThreatProfile::flame();
      default: return attack::ThreatProfile::stuxnet();
    }
  }
};

TEST_P(CampaignInvariants, TimelinesAreConsistent) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  attack::Scenario sc = attack::make_scope_cooling_scenario();
  if (GetParam().permissive_firewall) sc.firewall = net::Firewall::permissive();
  attack::CampaignOptions opts;
  opts.record_events = true;
  const attack::CampaignSimulator sim(sc, profile_of(GetParam().profile), cat, {},
                                      opts);
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    stats::Rng rng(seed);
    const attack::CampaignResult r = sim.run(rng);
    // Ordering invariants among the milestone timestamps.
    if (r.first_root) {
      ASSERT_TRUE(r.time_of_entry.has_value());
      EXPECT_GE(*r.first_root, *r.time_of_entry);
    }
    if (r.first_plc_compromise) {
      ASSERT_TRUE(r.first_root.has_value());
      EXPECT_GE(*r.first_plc_compromise, *r.first_root);
    }
    if (r.time_to_attack) {
      ASSERT_TRUE(r.first_plc_compromise.has_value());
      EXPECT_GE(*r.time_to_attack, *r.first_plc_compromise);
    }
    // All timestamps within the horizon; ratio curve in [0,1], monotone.
    for (const auto& [t, ratio] : r.compromised_ratio) {
      EXPECT_GE(t, 0.0);
      EXPECT_LE(t, 2160.0);
      EXPECT_GE(ratio, 0.0);
      EXPECT_LE(ratio, 1.0);
    }
    // Success implies not detected earlier.
    if (r.attack_succeeded() && r.time_to_detection) {
      EXPECT_LE(*r.time_to_attack, *r.time_to_detection);
    }
    // Espionage profiles never impair.
    if (GetParam().profile != 0) {
      EXPECT_FALSE(r.time_to_attack.has_value());
    }
  }
}

TEST_P(CampaignInvariants, PermissiveFirewallNeverReducesSpread) {
  if (GetParam().permissive_firewall) GTEST_SKIP() << "baseline case";
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  attack::Scenario segmented = attack::make_scope_cooling_scenario();
  attack::Scenario flat = segmented;
  flat.firewall = net::Firewall::permissive();
  const auto profile = profile_of(GetParam().profile);
  const attack::CampaignSimulator seg_sim(segmented, profile, cat);
  const attack::CampaignSimulator flat_sim(flat, profile, cat);
  double seg_ratio = 0.0, flat_ratio = 0.0;
  constexpr std::size_t kReps = 60;
  for (std::size_t i = 0; i < kReps; ++i) {
    stats::Rng r1(42, i), r2(42, i);
    seg_ratio += seg_sim.run(r1).compromised_ratio.back().second;
    flat_ratio += flat_sim.run(r2).compromised_ratio.back().second;
  }
  // Averaged over seeds, the flat network spreads at least as far.
  EXPECT_GE(flat_ratio, seg_ratio * 0.95);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CampaignInvariants,
    ::testing::Values(CampaignCase{"stuxnet_segmented", 0, false},
                      CampaignCase{"stuxnet_flat", 0, true},
                      CampaignCase{"duqu_segmented", 1, false},
                      CampaignCase{"flame_segmented", 2, false},
                      CampaignCase{"flame_flat", 2, true}),
    [](const auto& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Transforms: semantics preservation as a (transform kind x seed) matrix.
struct TransformCase {
  const char* name;
  int kind;  // 0 nop, 1 subst, 2 rename, 3 reorder, 4 all
};

class TransformSemantics
    : public ::testing::TestWithParam<std::tuple<TransformCase, std::uint64_t>> {};

TEST_P(TransformSemantics, OutputEquivalentOnRandomInputs) {
  const auto& [tc, seed] = GetParam();
  stats::Rng gen(seed);
  const divers::Program original = divers::generate_program(gen);
  stats::Rng trng(seed ^ 0x5EED);
  divers::Program variant;
  switch (tc.kind) {
    case 0: variant = divers::nop_insertion(original, 0.4, trng); break;
    case 1: variant = divers::instruction_substitution(original, 1.0, trng); break;
    case 2: variant = divers::register_renaming(original, trng); break;
    case 3: variant = divers::block_reordering(original, trng); break;
    default:
      variant = divers::diversify(original, divers::TransformConfig::all(), trng);
  }
  for (std::uint64_t in = 0; in < 3; ++in) {
    stats::Rng irng(in);
    std::vector<std::int64_t> input(divers::kMemoryWords);
    for (auto& w : input) w = static_cast<std::int64_t>(irng.below(2000)) - 1000;
    const auto a = divers::execute(original, input);
    const auto b = divers::execute(variant, input);
    ASSERT_FALSE(a.hit_step_limit);
    ASSERT_FALSE(b.hit_step_limit);
    EXPECT_EQ(a.memory, b.memory) << tc.name << " seed=" << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, TransformSemantics,
    ::testing::Combine(::testing::Values(TransformCase{"nop", 0},
                                         TransformCase{"subst", 1},
                                         TransformCase{"rename", 2},
                                         TransformCase{"reorder", 3},
                                         TransformCase{"all", 4}),
                       ::testing::Values(11, 22, 33, 44, 55, 66)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace divsec
