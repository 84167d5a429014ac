// Tests for divers/variants.h — the catalog and the mechanistic
// exploit-success model at the heart of the reproduction.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "divers/variants.h"

namespace divsec::divers {
namespace {

class StandardCatalog : public ::testing::Test {
 protected:
  VariantCatalog cat = VariantCatalog::standard(2013);
};

TEST_F(StandardCatalog, EveryKindHasAtLeastTwoVariants) {
  for (ComponentKind k : all_component_kinds()) {
    EXPECT_GE(cat.count(k), 2u) << static_cast<int>(k);
    for (const auto& v : cat.variants(k)) {
      EXPECT_EQ(v.kind, k);
      EXPECT_FALSE(v.name.empty());
      EXPECT_FALSE(v.binary.blocks.empty());
      EXPECT_GT(v.cost, 0.0);
    }
  }
}

TEST_F(StandardCatalog, IndexOfFindsByName) {
  EXPECT_EQ(cat.index_of(ComponentKind::kOs, "os.win_legacy"), 0u);
  EXPECT_THROW((void)cat.index_of(ComponentKind::kOs, "os.nope"), std::out_of_range);
}

TEST_F(StandardCatalog, PatchedLookupUsesSortedCves) {
  const Variant& win7 = cat.variant(ComponentKind::kOs,
                                    cat.index_of(ComponentKind::kOs, "os.win_patched"));
  EXPECT_TRUE(win7.patched(101));
  EXPECT_TRUE(win7.patched(102));
  EXPECT_FALSE(win7.patched(103));
}

TEST_F(StandardCatalog, SurvivalMatrixDiagonalIsOne) {
  for (ComponentKind k : all_component_kinds()) {
    for (std::size_t i = 0; i < cat.count(k); ++i)
      EXPECT_DOUBLE_EQ(cat.survival(k, i, i), 1.0) << static_cast<int>(k) << " " << i;
  }
}

TEST_F(StandardCatalog, PatchSiblingRetainsMoreGadgetsThanCrossFamily) {
  // windows legacy -> windows patched (same family, mild rebuild) must
  // leave more of the exploit intact than windows -> linux.
  const double same_family = cat.survival(ComponentKind::kOs, 0, 1);
  const double cross_family = cat.survival(ComponentKind::kOs, 0, 2);
  EXPECT_GT(same_family, 0.3);
  EXPECT_LT(cross_family, 0.05);
  EXPECT_GT(same_family, cross_family);
}

TEST_F(StandardCatalog, MulticompiledSiblingBreaksGadgets) {
  const std::size_t stock = cat.index_of(ComponentKind::kPlcFirmware, "plc.s7_stock");
  const std::size_t mc =
      cat.index_of(ComponentKind::kPlcFirmware, "plc.s7_multicompiled");
  EXPECT_LT(cat.survival(ComponentKind::kPlcFirmware, stock, mc), 0.05);
}

TEST_F(StandardCatalog, ExploitDiesOnPatchedVariantUnlessZeroDay) {
  Exploit e{"test", ComponentKind::kOs, /*cve=*/101, /*zero_day=*/false,
            /*dev_variant=*/0, /*base_success=*/0.9};
  // win_legacy (unpatched): full success path.
  EXPECT_GT(cat.exploit_success(e, 0), 0.5);
  // win_patched closed CVE 101.
  EXPECT_DOUBLE_EQ(cat.exploit_success(e, 1), 0.0);
  // Zero-day version ignores the patch but pays the diversity cost.
  e.zero_day = true;
  EXPECT_GT(cat.exploit_success(e, 1), 0.0);
  EXPECT_LT(cat.exploit_success(e, 1), cat.exploit_success(e, 0));
}

TEST_F(StandardCatalog, DiversityOrderingOfExploitSuccess) {
  // Success against: dev variant > patch sibling (zero-day) > cross family.
  Exploit e{"zd", ComponentKind::kOs, 150, /*zero_day=*/true, 0, 0.9};
  const double on_dev = cat.exploit_success(e, 0);
  const double on_sibling = cat.exploit_success(e, 1);
  const double on_linux = cat.exploit_success(e, 2);
  EXPECT_GT(on_dev, on_sibling);
  EXPECT_GT(on_sibling, on_linux);
  // Full-survival path on the dev variant (hardening 0): base * 1.
  EXPECT_NEAR(on_dev, 0.9, 1e-12);
}

TEST_F(StandardCatalog, HardeningScalesSuccess) {
  // rtos_micro has hardening 0.5.
  Exploit e{"zd", ComponentKind::kOs, 150, true, 0, 0.8};
  const std::size_t rtos = cat.index_of(ComponentKind::kOs, "os.rtos_micro");
  const double expected_structural =
      0.05 + 0.95 * cat.survival(ComponentKind::kOs, 0, rtos);
  EXPECT_NEAR(cat.exploit_success(e, rtos), 0.8 * expected_structural * 0.5, 1e-12);
}

TEST_F(StandardCatalog, WorkFactorGrowsWithAslr) {
  Exploit e{"zd", ComponentKind::kOs, 150, true, 0, 0.8};
  const double wf_legacy = cat.exploit_work_factor(e, 0);   // 0 bits
  const double wf_linux = cat.exploit_work_factor(e, 2);    // 16 bits
  EXPECT_DOUBLE_EQ(wf_legacy, 1.0);
  EXPECT_GT(wf_linux, wf_legacy);
}

TEST_F(StandardCatalog, DeterministicInSeed) {
  const VariantCatalog again = VariantCatalog::standard(2013);
  for (ComponentKind k : all_component_kinds()) {
    ASSERT_EQ(again.count(k), cat.count(k));
    for (std::size_t i = 0; i < cat.count(k); ++i) {
      EXPECT_EQ(encode(again.variant(k, i).binary), encode(cat.variant(k, i).binary));
    }
  }
}

TEST(VariantCatalog, CustomCatalogValidation) {
  VariantCatalog cat;
  Variant v;
  v.name = "x";
  v.kind = ComponentKind::kOs;
  v.binary.blocks.resize(1);
  v.binary.blocks[0].term = {TerminatorKind::kReturn, 0, 0, 0};
  v.hardening = 1.0;  // out of range
  EXPECT_THROW(cat.add_variant(v), std::invalid_argument);
  v.hardening = 0.0;
  v.cost = 0.0;
  EXPECT_THROW(cat.add_variant(v), std::invalid_argument);
  v.cost = 1.0;
  EXPECT_EQ(cat.add_variant(v), 0u);
  EXPECT_THROW((void)cat.survival(ComponentKind::kOs, 0, 3), std::out_of_range);
}

TEST(VariantCatalog, AtMostOneByteOfVariantsPerKind) {
  // A deployed variant index is stored in one byte per node slot, so the
  // catalog is where a 257th variant of one kind is refused.
  VariantCatalog cat;
  Variant v;
  v.kind = ComponentKind::kHistorianDb;
  for (std::size_t i = 0; i < kMaxVariantsPerKind; ++i) {
    v.name = "db" + std::to_string(i);
    ASSERT_EQ(cat.add_variant(v), i);
  }
  EXPECT_EQ(kMaxVariantsPerKind, 256u);
  v.name = "db256";
  EXPECT_THROW(cat.add_variant(v), std::length_error);
  EXPECT_EQ(cat.count(ComponentKind::kHistorianDb), kMaxVariantsPerKind);
  // The bound is per kind.
  v.kind = ComponentKind::kOs;
  EXPECT_EQ(cat.add_variant(v), 0u);
}

TEST(ComponentKind, Enumeration) {
  EXPECT_EQ(all_component_kinds().size(), kComponentKindCount);
}

}  // namespace
}  // namespace divsec::divers
