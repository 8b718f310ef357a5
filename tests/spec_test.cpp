// Tests for the specification layer: builders, shorthand printing, and the
// location sets the named conditions select.
#include <gtest/gtest.h>

#include "frontend/registry.h"
#include "spec/spec.h"
#include "ta/transforms.h"

namespace ctaver::spec {
namespace {

ta::System cc85a_rd() {
  return ta::single_round(ta::nonprobabilistic(
      frontend::ProtocolRegistry::with_builtins().make("CC85a").system));
}

TEST(Spec, Inv1SelectsDecisionsAndOppositeFinals) {
  ta::System rd = cc85a_rd();
  Spec s = inv1(rd, 0);
  EXPECT_EQ(s.shape, Shape::kEventuallyImpliesGlobally);
  ASSERT_EQ(s.premise.locs.size(), 1u);
  EXPECT_EQ(rd.process.locations[static_cast<std::size_t>(
                                     s.premise.locs[0].second)]
                .name,
            "D0");
  // Conclusion: all value-1 finals (E1 and D1).
  EXPECT_EQ(s.conclusion.locs.size(), 2u);
}

TEST(Spec, Inv2PremiseIncludesBorders) {
  ta::System rd = cc85a_rd();
  Spec s = inv2(rd, 1);
  EXPECT_EQ(s.shape, Shape::kInitialImpliesGlobally);
  // I1 and J1 must both be empty at the round start.
  std::vector<std::string> names;
  for (const auto& [coin, l] : s.premise.locs) {
    EXPECT_FALSE(coin);
    names.push_back(
        rd.process.locations[static_cast<std::size_t>(l)].name);
  }
  EXPECT_NE(std::find(names.begin(), names.end(), "I1"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "J1"), names.end());
}

TEST(Spec, C2IsInv2AtOppositeValue) {
  ta::System rd = cc85a_rd();
  Spec c2v0 = c2(rd, 0);
  Spec inv2v1 = inv2(rd, 1);
  EXPECT_EQ(c2v0.premise.locs, inv2v1.premise.locs);
  EXPECT_EQ(c2v0.conclusion.locs, inv2v1.conclusion.locs);
}

TEST(Spec, BindingUsesNamedLocations) {
  protocols::ProtocolModel pm =
      frontend::ProtocolRegistry::with_builtins().make("ABY22");
  ta::System rd = ta::single_round(ta::nonprobabilistic(pm.system));
  Spec s = binding(rd, "CB2", pm.n0_loc, pm.m1_loc);
  EXPECT_EQ(s.premise.locs.size(), 1u);
  EXPECT_EQ(s.conclusion.locs.size(), 1u);
  EXPECT_THROW(binding(rd, "x", "NoSuchLoc", pm.m1_loc), std::out_of_range);
}

TEST(Spec, Printing) {
  ta::System rd = cc85a_rd();
  EXPECT_EQ(inv1(rd, 0).str(rd),
            "Inv1(v=0): A( F EX{D0} -> G !EX{E1,D1} )");
  EXPECT_EQ(inv2(rd, 0).str(rd),
            "Inv2(v=0): A( init-zero{I0,J0} -> G !EX{E0,D0} )");
  LocSet empty;
  EXPECT_EQ(empty.str(rd), "{}");
}

}  // namespace
}  // namespace ctaver::spec
