// Tests for the protocol benchmark models: structural validity, category
// metadata, and selected fast verification verdicts (the full Table-II run
// lives in bench/bench_table2).
#include <gtest/gtest.h>

#include "frontend/registry.h"
#include "schema/checker.h"
#include "spec/spec.h"
#include "ta/transforms.h"
#include "ta/validate.h"

namespace ctaver::protocols {
namespace {

ProtocolModel builtin(const std::string& name) {
  return frontend::ProtocolRegistry::with_builtins().make(name);
}

class AllProtocols : public ::testing::TestWithParam<std::string> {
 protected:
  [[nodiscard]] ProtocolModel model() const { return builtin(GetParam()); }
};

TEST_P(AllProtocols, RegisteredUnderItsDeclaredName) {
  // A registry entry pointing at the wrong spec file shows up here.
  EXPECT_EQ(model().name, GetParam());
}

TEST_P(AllProtocols, SystemIsWellFormed) {
  ProtocolModel pm = model();
  EXPECT_TRUE(ta::validate(pm.system).empty());
}

TEST_P(AllProtocols, SingleRoundPremiseHolds) {
  ProtocolModel pm = model();
  ta::System rd = ta::single_round(ta::nonprobabilistic(pm.system));
  EXPECT_TRUE(ta::validate_single_round(rd).empty());
}

TEST_P(AllProtocols, SweepParamsAreAdmissible) {
  ProtocolModel pm = model();
  for (const auto& params : pm.sweep_params) {
    EXPECT_TRUE(pm.system.env.admissible(params));
  }
}

TEST_P(AllProtocols, CoinAutomatonHasOneProbabilisticToss) {
  ProtocolModel pm = model();
  // The naive-voting warm-up is the one model without a common coin.
  if (pm.system.coin.locations.empty()) GTEST_SKIP();
  int non_dirac = 0;
  for (const ta::Rule& r : pm.system.coin.rules) {
    if (!r.is_dirac()) ++non_dirac;
  }
  EXPECT_EQ(non_dirac, 1);
  EXPECT_EQ(pm.system.coin_vars().size(), 2u);
}

TEST_P(AllProtocols, CategoryCHasRefinementLocations) {
  ProtocolModel pm = model();
  if (pm.category != Category::kC) GTEST_SKIP();
  ta::System refined = pm.refined();
  EXPECT_NO_THROW((void)refined.process.find_loc(pm.n0_loc));
  EXPECT_NO_THROW((void)refined.process.find_loc(pm.n1_loc));
  EXPECT_NO_THROW((void)refined.process.find_loc(pm.nbot_loc));
  EXPECT_NO_THROW((void)refined.process.find_loc(pm.m0_loc));
  EXPECT_NO_THROW((void)refined.process.find_loc(pm.m1_loc));
}

INSTANTIATE_TEST_SUITE_P(
    Benchmark, AllProtocols,
    ::testing::ValuesIn(frontend::ProtocolRegistry::with_builtins().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(ProtocolSizes, MatchTheModelScale) {
  // The warm-up, then Table II's order.
  EXPECT_EQ(frontend::ProtocolRegistry::with_builtins().names(),
            (std::vector<std::string>{"NaiveVoting", "Rabin83", "CC85a",
                                      "CC85b", "FMR05", "KS16", "MMR14",
                                      "Miller18", "ABY22"}));
  // Category (C) automata are substantially larger than (A)/(B), as in
  // Table II.
  EXPECT_GT(builtin("Miller18").system.total_locations(),
            builtin("CC85a").system.total_locations());
  EXPECT_GT(builtin("ABY22").system.total_rules(),
            builtin("CC85b").system.total_rules());
}

TEST(Mmr14, BindingConditionCB2FailsWithAttackCE) {
  ProtocolModel pm = builtin("MMR14");
  ta::System rdr = ta::single_round(ta::nonprobabilistic(pm.refined()));
  spec::Spec cb2 = spec::binding(rdr, "CB2", pm.n0_loc, pm.m1_loc);
  schema::CheckOptions opts;
  opts.time_budget_s = 120.0;
  schema::CheckResult res = schema::check_spec(rdr, cb2, opts);
  ASSERT_FALSE(res.holds);
  ASSERT_TRUE(res.ce.has_value());
  // The minimized witness parameters satisfy n > 3t, t >= 1 (the attack
  // needs at least one tolerated fault). The paper's ByMC run reported
  // n=193, t=64 — any admissible valuation witnesses the same schema.
  long long n = res.ce->params[0], t = res.ce->params[1];
  EXPECT_GT(n, 3 * t);
  EXPECT_GE(t, 1);
}

TEST(Mmr14, AgreementInvariantHolds) {
  ProtocolModel pm = builtin("MMR14");
  ta::System rd = ta::single_round(ta::nonprobabilistic(pm.system));
  schema::CheckOptions opts;
  opts.time_budget_s = 120.0;
  schema::CheckResult res = schema::check_spec(rd, spec::inv1(rd, 0), opts);
  EXPECT_TRUE(res.holds);
  EXPECT_TRUE(res.complete);
}

TEST(CC85a, RoundInvariantsHold) {
  ProtocolModel pm = builtin("CC85a");
  ta::System rd = ta::single_round(ta::nonprobabilistic(pm.system));
  for (int v : {0, 1}) {
    schema::CheckResult agr = schema::check_spec(rd, spec::inv1(rd, v));
    EXPECT_TRUE(agr.holds) << "Inv1 v=" << v;
    schema::CheckResult val = schema::check_spec(rd, spec::inv2(rd, v));
    EXPECT_TRUE(val.holds) << "Inv2 v=" << v;
  }
}

TEST(Rabin83, CategoryAConditionC2Holds) {
  ProtocolModel pm = builtin("Rabin83");
  ta::System rd = ta::single_round(ta::nonprobabilistic(pm.system));
  for (int v : {0, 1}) {
    schema::CheckResult res = schema::check_spec(rd, spec::c2(rd, v));
    EXPECT_TRUE(res.holds) << "C2 v=" << v;
    EXPECT_TRUE(res.complete);
  }
}

}  // namespace
}  // namespace ctaver::protocols
