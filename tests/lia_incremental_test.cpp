// Tests for the incremental LIA solver (src/lia): push/pop scopes restore
// bounds, constraint rows, and variable registrations; SAT→UNSAT→SAT
// sequences across scopes; and a randomized scoped-vs-fresh equivalence
// harness that replays every intermediate constraint system into a fresh
// solver and demands the same verdict.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "lia/solver.h"
#include "lia/sparse_row.h"

namespace ctaver::lia {
namespace {

using util::Rational;

LinExpr konst(long long k) { return LinExpr(Rational(k)); }

TEST(SparseRow, SortedInsertFindErase) {
  SparseRow r;
  r.add(5, Rational(2));
  r.add(1, Rational(3));
  r.add(9, Rational(-1));
  ASSERT_EQ(r.size(), 3u);
  // Entries iterate in ascending variable order.
  std::vector<Var> order;
  for (const auto& [v, c] : r) {
    (void)c;
    order.push_back(v);
  }
  EXPECT_EQ(order, (std::vector<Var>{1, 5, 9}));
  EXPECT_EQ(r.coeff(5), Rational(2));
  EXPECT_EQ(r.coeff(4), Rational(0));
  r.add(5, Rational(-2));  // cancels to zero: entry erased
  EXPECT_FALSE(r.contains(5));
  r.erase(1);
  EXPECT_EQ(r.size(), 1u);
}

TEST(SparseRow, AddMultipleMergesAndSkips) {
  SparseRow a, b;
  a.add(1, Rational(1));
  a.add(3, Rational(2));
  a.add(7, Rational(1));
  b.add(2, Rational(1));
  b.add(3, Rational(-1));
  b.add(7, Rational(5));
  std::vector<SparseRow::Entry> scratch;
  // a += 2*b, dropping var 7 from the result entirely.
  a.add_multiple(Rational(2), b, /*skip=*/7, &scratch);
  EXPECT_EQ(a.coeff(1), Rational(1));
  EXPECT_EQ(a.coeff(2), Rational(2));
  EXPECT_EQ(a.coeff(3), Rational(0));  // 2 + 2*(-1) cancels
  EXPECT_FALSE(a.contains(3));
  EXPECT_FALSE(a.contains(7));
}

TEST(Incremental, PopRestoresBounds) {
  Solver s;
  Var x = s.new_var(0, 10);
  ASSERT_EQ(s.check(), Result::kSat);
  auto cp = s.push();
  s.set_lower(x, 8);
  s.set_upper(x, 6);  // conflict inside the scope
  EXPECT_EQ(s.check(), Result::kUnsat);
  s.pop_to(cp);
  ASSERT_EQ(s.check(), Result::kSat);
  EXPECT_GE(s.model(x), 0);
  EXPECT_LE(s.model(x), 10);
  // Loosening attempts outside scopes are ignored (bounds only tighten).
  s.set_lower(x, -5);
  ASSERT_EQ(s.check(), Result::kSat);
  EXPECT_GE(s.model(x), 0);
}

TEST(Incremental, PopDropsConstraintRows) {
  Solver s;
  Var x = s.new_var(0);
  Var y = s.new_var(0);
  s.add(Constraint::ge(LinExpr::term(x) + LinExpr::term(y), konst(4)));
  ASSERT_EQ(s.check(), Result::kSat);
  s.push();
  s.add(Constraint::le(LinExpr::term(x) + LinExpr::term(y), konst(3)));
  EXPECT_EQ(s.check(), Result::kUnsat);
  EXPECT_EQ(s.num_constraints(), 2u);
  s.pop();
  EXPECT_EQ(s.num_constraints(), 1u);
  ASSERT_EQ(s.check(), Result::kSat);
  EXPECT_GE(s.model(x) + s.model(y), 4);
}

TEST(Incremental, PopRemovesVariables) {
  Solver s;
  Var x = s.new_var(0, 5);
  ASSERT_EQ(s.check(), Result::kSat);
  s.push();
  Var z = s.new_var(3, 3);
  s.add(Constraint::eq(LinExpr::term(x), LinExpr::term(z)));
  ASSERT_EQ(s.check(), Result::kSat);
  EXPECT_EQ(s.model(x), 3);
  EXPECT_EQ(s.num_vars(), 2);
  s.pop();
  EXPECT_EQ(s.num_vars(), 1);
  // x is free of z again; the solver keeps working on the old variable.
  s.add(Constraint::ge(LinExpr::term(x), konst(5)));
  ASSERT_EQ(s.check(), Result::kSat);
  EXPECT_EQ(s.model(x), 5);
}

TEST(Incremental, SatUnsatSatAcrossScopes) {
  Solver s;
  Var x = s.new_var(0);
  Var y = s.new_var(0);
  s.add(Constraint::ge(LinExpr::term(x) + LinExpr::term(y, Rational(2)),
                       konst(7)));
  ASSERT_EQ(s.check(), Result::kSat);
  for (int round = 0; round < 3; ++round) {
    auto cp = s.push();
    s.add(Constraint::le(LinExpr::term(x), konst(0)));
    s.add(Constraint::le(LinExpr::term(y), konst(2)));
    EXPECT_EQ(s.check(), Result::kUnsat) << "round " << round;
    s.pop_to(cp);
    ASSERT_EQ(s.check(), Result::kSat) << "round " << round;
    EXPECT_GE(s.model(x) + 2 * s.model(y), 7);
  }
}

TEST(Incremental, NestedScopesPopToOuter) {
  Solver s;
  Var x = s.new_var(0, 100);
  auto outer = s.push();
  s.set_lower(x, 10);
  s.push();
  s.set_lower(x, 50);
  s.push();
  s.add(Constraint::le(LinExpr::term(x), konst(20)));
  EXPECT_EQ(s.check(), Result::kUnsat);
  EXPECT_EQ(s.depth(), 3);
  s.pop_to(outer);  // unwinds all three at once
  EXPECT_EQ(s.depth(), 0);
  ASSERT_EQ(s.check(), Result::kSat);
  s.add(Constraint::le(LinExpr::term(x), konst(20)));
  ASSERT_EQ(s.check(), Result::kSat);  // lower bound 10/50 gone
  EXPECT_LE(s.model(x), 20);
}

TEST(Incremental, PopWithoutScopeThrows) {
  Solver s;
  EXPECT_THROW(s.pop(), std::logic_error);
}

TEST(Incremental, MinimizeLeavesSystemIntact) {
  Solver s;
  Var x = s.new_var(0);
  Var y = s.new_var(0);
  s.add(Constraint::ge(LinExpr::term(x) + LinExpr::term(y, Rational(2)),
                       konst(7)));
  s.add(Constraint::le(LinExpr::term(x), konst(4)));
  ASSERT_EQ(s.minimize(LinExpr::term(x) + LinExpr::term(y)), Result::kSat);
  EXPECT_EQ(s.model(x) + s.model(y), 4);
  // The binary-search probes were popped: no stray objective bound remains.
  EXPECT_EQ(s.num_constraints(), 2u);
  EXPECT_EQ(s.depth(), 0);
  s.add(Constraint::ge(LinExpr::term(x) + LinExpr::term(y), konst(9)));
  ASSERT_EQ(s.check(), Result::kSat);
}

TEST(Incremental, CheckRelaxedDoesNotBranch) {
  Solver s;
  Var x = s.new_var(0, 100);
  Var y = s.new_var(0, 100);
  // Rationally SAT (x = 4.5), integrally UNSAT.
  s.add(Constraint::eq(
      LinExpr::term(x, Rational(4)) + LinExpr::term(y, Rational(6)),
      konst(9)));
  EXPECT_EQ(s.check_relaxed(), Result::kSat);
  EXPECT_EQ(s.check(), Result::kUnsat);
  // The integral answer did not corrupt the relaxation or vice versa.
  EXPECT_EQ(s.check_relaxed(), Result::kSat);
}

TEST(Incremental, WarmRecheckAfterRowRemovalKeepsModelsValid) {
  // Pops that eliminate slack variables from the basis (pure pivots) must
  // leave an assignment the next check can repair, not garbage.
  Solver s;
  std::vector<Var> v;
  for (int i = 0; i < 6; ++i) v.push_back(s.new_var(0, 50));
  LinExpr sum;
  for (Var x : v) sum += LinExpr::term(x);
  s.add(Constraint::ge(sum, konst(60)));
  ASSERT_EQ(s.check(), Result::kSat);
  for (int round = 0; round < 5; ++round) {
    auto cp = s.push();
    // A chain of equalities that forces heavy pivoting in the scope.
    for (int i = 0; i + 1 < 6; ++i) {
      s.add(Constraint::eq(LinExpr::term(v[static_cast<std::size_t>(i)]),
                           LinExpr::term(v[static_cast<std::size_t>(i + 1)]) +
                               konst(round % 3)));
    }
    Result r = s.check();
    ASSERT_NE(r, Result::kUnknown);
    if (r == Result::kSat) {
      long long total = 0;
      for (Var x : v) total += static_cast<long long>(s.model(x));
      EXPECT_GE(total, 60);
    }
    s.pop_to(cp);
    ASSERT_EQ(s.check(), Result::kSat);
    long long total = 0;
    for (Var x : v) total += static_cast<long long>(s.model(x));
    EXPECT_GE(total, 60);
  }
}

// ---------------------------------------------------------------------------
// Randomized scoped-vs-fresh equivalence: interleave adds, bound
// tightenings, pushes, and pops; at every check, a fresh solver fed the
// currently-active constraint system must agree on SAT/UNSAT, and SAT
// models must satisfy every active constraint.
//
// Each seed's warm-solver pivot count is pinned too. The random rows carry
// non-unit coefficients, so their pivots run the fractional Rational paths
// that threshold queries rarely reach; a kernel change that alters any
// tableau row (a substitution in add(), a merge, a pivot rewrite) or a
// Bland choice moves some seed's count. Re-pin only for a change that is
// meant to alter the pivot sequence, and say why.
// ---------------------------------------------------------------------------

constexpr long long kScopedPivots[30] = {
    3, 8, 42, 11, 13, 3, 39, 40, 13, 0, 6, 9, 7, 12, 20,  // seeds 0-14
    3, 3, 1,  8,  7,  5, 5,  17, 6,  20, 3, 4, 4, 30, 5,  // seeds 15-29
};

struct ScopeFrame {
  std::size_t ncons;
  std::vector<std::pair<Var, std::pair<long long, long long>>> saved_bounds;
};

class ScopedVsFresh : public ::testing::TestWithParam<unsigned> {};

TEST_P(ScopedVsFresh, SameVerdictAsReplay) {
  std::mt19937 rng(GetParam());
  const int nv = 4;
  const long long lo = 0, hi = 8;

  Solver inc;
  // Mirror of the active system for the fresh replays.
  std::vector<std::pair<long long, long long>> bounds(
      static_cast<std::size_t>(nv), {lo, hi});
  std::vector<Constraint> active;
  std::vector<ScopeFrame> frames;
  std::vector<Solver::Checkpoint> cps;

  for (int i = 0; i < nv; ++i) inc.new_var(lo, hi);

  auto random_constraint = [&]() {
    LinExpr e;
    for (int i = 0; i < nv; ++i) {
      long long c = static_cast<long long>(rng() % 7) - 3;
      if (c != 0) e.add_term(i, Rational(c));
    }
    e.add_const(Rational(static_cast<long long>(rng() % 17) - 8));
    Rel rel = (rng() % 4 == 0) ? Rel::kEq : (rng() % 2 == 0) ? Rel::kLe
                                                             : Rel::kGe;
    return Constraint{e, rel};
  };

  auto check_both = [&]() {
    Result got = inc.check();
    ASSERT_NE(got, Result::kUnknown);
    Solver fresh;
    for (int i = 0; i < nv; ++i) {
      fresh.new_var(bounds[static_cast<std::size_t>(i)].first,
                    bounds[static_cast<std::size_t>(i)].second);
    }
    for (const Constraint& c : active) fresh.add(c);
    Result want = fresh.check();
    ASSERT_NE(want, Result::kUnknown);
    EXPECT_EQ(got == Result::kSat, want == Result::kSat)
        << "seed " << GetParam() << " after " << active.size()
        << " active constraints";
    if (got == Result::kSat) {
      // The incremental model satisfies every active constraint and bound.
      for (int i = 0; i < nv; ++i) {
        long long v = static_cast<long long>(inc.model(i));
        EXPECT_GE(v, bounds[static_cast<std::size_t>(i)].first);
        EXPECT_LE(v, bounds[static_cast<std::size_t>(i)].second);
      }
      for (const Constraint& c : active) {
        Rational v = c.expr.eval(
            [&](Var x) { return Rational(inc.model(x), 1); });
        bool ok = c.rel == Rel::kLe   ? !v.is_positive()
                  : c.rel == Rel::kGe ? !v.is_negative()
                                      : v.is_zero();
        EXPECT_TRUE(ok) << "seed " << GetParam();
      }
    }
  };

  for (int step = 0; step < 60; ++step) {
    unsigned op = rng() % 10;
    if (op < 4) {
      Constraint c = random_constraint();
      active.push_back(c);
      inc.add(std::move(c));
    } else if (op < 6) {
      Var v = static_cast<Var>(rng() % nv);
      auto& b = bounds[static_cast<std::size_t>(v)];
      if (rng() % 2 == 0) {
        long long nb = static_cast<long long>(rng() % 9);
        inc.set_lower(v, nb);
        b.first = std::max(b.first, nb);
      } else {
        long long nb = static_cast<long long>(rng() % 9);
        inc.set_upper(v, nb);
        b.second = std::min(b.second, nb);
      }
    } else if (op < 8) {
      ScopeFrame f;
      f.ncons = active.size();
      for (int i = 0; i < nv; ++i) {
        f.saved_bounds.emplace_back(i, bounds[static_cast<std::size_t>(i)]);
      }
      frames.push_back(std::move(f));
      cps.push_back(inc.push());
    } else if (!frames.empty()) {
      inc.pop_to(cps.back());
      cps.pop_back();
      ScopeFrame f = std::move(frames.back());
      frames.pop_back();
      active.resize(f.ncons);
      for (const auto& [v, b] : f.saved_bounds) {
        bounds[static_cast<std::size_t>(v)] = b;
      }
    }
    if (step % 5 == 4) check_both();
  }
  check_both();
  EXPECT_EQ(inc.total_pivots(), kScopedPivots[GetParam()])
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScopedVsFresh, ::testing::Range(0u, 30u));

}  // namespace
}  // namespace ctaver::lia
