// Tests for the schema checker's pruning machinery: contribution analysis,
// delay safety, the independence quotient, and precedence chains — plus
// cross-validation that pruned and unpruned enumerations agree on verdicts.
#include <gtest/gtest.h>

#include "frontend/registry.h"
#include "schema/checker.h"
#include "schema/guards.h"
#include "spec/spec.h"
#include "ta/transforms.h"

namespace ctaver::schema {
namespace {

protocols::ProtocolModel builtin(const std::string& name) {
  return frontend::ProtocolRegistry::with_builtins().make(name);
}

ta::System prepared(const ta::System& sys) {
  return ta::single_round(ta::nonprobabilistic(sys));
}

int find_guard(const GuardTable& table, const ta::System& sys,
               const std::string& text) {
  for (int i = 0; i < table.num_guards(); ++i) {
    if (table.guards[static_cast<std::size_t>(i)].str(sys) == text) return i;
  }
  ADD_FAILURE() << "guard not found: " << text;
  return -1;
}

TEST(Independence, CoinGuardsContributeNothing) {
  ta::System rd = prepared(builtin("CC85a").system);
  GuardTable table = analyze_guards(rd, true);
  int cc0 = find_guard(table, rd, "cc0 >= 1");
  ASSERT_GE(cc0, 0);
  const GuardInfo& info = table.guards[static_cast<std::size_t>(cc0)];
  // Coin-gated rules lead only into finals/border copies with zero updates.
  for (bool c : info.contrib) EXPECT_FALSE(c);
  EXPECT_TRUE(info.delay_safe);
  // Hence the coin guard commutes before anything.
  EXPECT_TRUE(info.swap_allowed_before(0));
}

TEST(Independence, EchoGuardsSupportDownstreamThresholds) {
  // In MMR14 the echo guard b1 >= t+1-f gates rules that increment b1 and
  // feed the whole AUX chain: it must NOT commute past the accept guard.
  ta::System rd = prepared(builtin("MMR14").system);
  GuardTable table = analyze_guards(rd, true);
  int echo1 = find_guard(table, rd, "b1 >= t - f + 1");
  int accept1 = find_guard(table, rd, "b1 >= 2*t - f + 1");
  ASSERT_GE(echo1, 0);
  ASSERT_GE(accept1, 0);
  const GuardInfo& info = table.guards[static_cast<std::size_t>(echo1)];
  EXPECT_TRUE(info.contrib[static_cast<std::size_t>(accept1)]);
  EXPECT_FALSE(info.swap_allowed_before(accept1));
}

TEST(Independence, PrecedenceChainAuxAfterAccept) {
  // a0 >= n-t-f can only flip after b0 >= 2t+1-f (all a0-incrementing rules
  // carry the accept guard).
  ta::System rd = prepared(builtin("MMR14").system);
  GuardTable table = analyze_guards(rd, true);
  int quorum0 = find_guard(table, rd, "a0 >= n - t - f");
  int accept0 = find_guard(table, rd, "b0 >= 2*t - f + 1");
  const GuardInfo& info = table.guards[static_cast<std::size_t>(quorum0)];
  EXPECT_NE(std::find(info.must_follow.begin(), info.must_follow.end(),
                      accept0),
            info.must_follow.end());
}

TEST(Independence, FallingGuardsAppearInRefinedModels) {
  protocols::ProtocolModel pm = builtin("MMR14");
  ta::System rdr = prepared(pm.refined());
  GuardTable table = analyze_guards(rdr, true);
  int falling = 0;
  for (const GuardInfo& g : table.guards) falling += g.rising ? 0 : 1;
  EXPECT_EQ(falling, 2);  // a0 < 1 and a1 < 1 from the Fig.-6 split
}

TEST(Independence, PrunedEnumerationIsSmaller) {
  ta::System rd = prepared(builtin("CC85a").system);
  spec::Spec inv1 = spec::inv1(rd, 0);
  long long raw = count_schemas(rd, inv1, false, 100'000'000);
  long long pruned = count_schemas(rd, inv1, true, 100'000'000);
  EXPECT_LT(pruned, raw / 10);  // orders of magnitude in practice
  EXPECT_GT(pruned, 0);
}

// Verdict cross-validation: pruning must never flip a result.
class PrunedVsUnpruned : public ::testing::TestWithParam<int> {};

TEST_P(PrunedVsUnpruned, SameVerdictOnNaiveVotingFamily) {
  // Small systems where the unpruned enumeration is feasible.
  protocols::ProtocolModel pm = builtin("NaiveVoting");
  ta::System rd = prepared(pm.system);
  int v = GetParam() % 2;
  bool agreement = GetParam() < 2;
  spec::Spec s = agreement ? spec::inv1(rd, v) : spec::inv2(rd, v);
  CheckOptions pruned_opts;
  CheckOptions raw_opts;
  raw_opts.prune = false;
  CheckResult a = check_spec(rd, s, pruned_opts);
  CheckResult b = check_spec(rd, s, raw_opts);
  ASSERT_TRUE(a.complete);
  ASSERT_TRUE(b.complete);
  EXPECT_EQ(a.holds, b.holds);
  EXPECT_LE(a.nschemas, b.nschemas);
}

INSTANTIATE_TEST_SUITE_P(Specs, PrunedVsUnpruned, ::testing::Range(0, 4));

TEST(Independence, PrunedVsUnprunedOnCc85aAgreement) {
  ta::System rd = prepared(builtin("CC85a").system);
  spec::Spec s = spec::inv1(rd, 0);
  CheckOptions raw_opts;
  raw_opts.prune = false;
  raw_opts.time_budget_s = 120.0;
  CheckResult pruned = check_spec(rd, s, {});
  CheckResult raw = check_spec(rd, s, raw_opts);
  ASSERT_TRUE(pruned.complete);
  ASSERT_TRUE(raw.complete);
  EXPECT_TRUE(pruned.holds);
  EXPECT_TRUE(raw.holds);
}

}  // namespace
}  // namespace ctaver::schema
