// Randomized cross-validation of the LIA solver against brute force on
// small integer boxes, plus stress cases that exercise branch & bound.
#include <gtest/gtest.h>

#include <random>

#include "lia/solver.h"

namespace ctaver::lia {
namespace {

using util::Rational;

/// A random conjunction over `nv` variables in [0, 6], checked against
/// exhaustive enumeration of the box.
class RandomSystems : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomSystems, AgreesWithBruteForce) {
  std::mt19937 rng(GetParam());
  const int nv = 3;
  const long long lo = 0, hi = 6;

  Solver s;
  for (int i = 0; i < nv; ++i) {
    std::string name = "x";
    name += std::to_string(i);
    s.new_var(name, lo, hi);
  }
  struct Row {
    long long c[3];
    long long k;
    Rel rel;
  };
  std::vector<Row> rows;
  int n_rows = 2 + static_cast<int>(rng() % 4);
  for (int r = 0; r < n_rows; ++r) {
    Row row{};
    LinExpr e;
    for (int i = 0; i < nv; ++i) {
      row.c[i] = static_cast<long long>(rng() % 7) - 3;
      e.add_term(i, Rational(row.c[i]));
    }
    row.k = static_cast<long long>(rng() % 21) - 10;
    e.add_const(Rational(row.k));
    row.rel = (rng() % 3 == 0)   ? Rel::kEq
              : (rng() % 2 == 0) ? Rel::kLe
                                 : Rel::kGe;
    rows.push_back(row);
    s.add({e, row.rel});
  }

  bool brute_sat = false;
  for (long long a = lo; a <= hi && !brute_sat; ++a) {
    for (long long b = lo; b <= hi && !brute_sat; ++b) {
      for (long long c = lo; c <= hi && !brute_sat; ++c) {
        long long vals[3] = {a, b, c};
        bool ok = true;
        for (const Row& row : rows) {
          long long v = row.k;
          for (int i = 0; i < nv; ++i) v += row.c[i] * vals[i];
          bool sat_row = row.rel == Rel::kLe   ? v <= 0
                         : row.rel == Rel::kGe ? v >= 0
                                               : v == 0;
          if (!sat_row) ok = false;
        }
        brute_sat |= ok;
      }
    }
  }

  Result res = s.check();
  ASSERT_NE(res, Result::kUnknown);
  EXPECT_EQ(res == Result::kSat, brute_sat) << "seed " << GetParam();
  if (res == Result::kSat) {
    // The model must satisfy every constraint.
    for (const Row& row : rows) {
      long long v = row.k;
      for (int i = 0; i < nv; ++i) {
        v += row.c[i] * static_cast<long long>(s.model(i));
      }
      bool sat_row = row.rel == Rel::kLe   ? v <= 0
                     : row.rel == Rel::kGe ? v >= 0
                                           : v == 0;
      EXPECT_TRUE(sat_row);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystems, ::testing::Range(0u, 40u));

TEST(BranchAndBound, KnapsackStyleEquality) {
  // 7x + 11y == 100, x,y >= 0: no solution (gcd fine but bounded search);
  // 7x + 11y == 95: x=12,y=1 -> 84+11=95: solution exists.
  Solver s1;
  Var x1 = s1.new_var("x", 0, 100);
  Var y1 = s1.new_var("y", 0, 100);
  s1.add(Constraint::eq(
      LinExpr::term(x1, Rational(7)) + LinExpr::term(y1, Rational(11)),
      LinExpr(Rational(100))));
  // 7x+11y=100: y=1 -> 89 no; y=3 -> 67 no; y=6 -> 34 no; y=2 -> 78 no;
  // y=4 -> 56 = 7*8: x=8,y=4 works!
  ASSERT_EQ(s1.check(), Result::kSat);
  EXPECT_EQ(7 * s1.model(x1) + 11 * s1.model(y1), 100);

  Solver s2;
  Var x2 = s2.new_var("x", 0, 100);
  Var y2 = s2.new_var("y", 0, 100);
  s2.add(Constraint::eq(
      LinExpr::term(x2, Rational(4)) + LinExpr::term(y2, Rational(6)),
      LinExpr(Rational(9))));  // parity: impossible
  EXPECT_EQ(s2.check(), Result::kUnsat);
}

TEST(BranchAndBound, RelaxationModeSkipsIntegrality) {
  Solver s;
  Var x = s.new_var("x", 0, 100);
  Var y = s.new_var("y", 0, 100);
  // Rationally SAT (x = 4.5), integrally UNSAT.
  s.add(Constraint::eq(
      LinExpr::term(x, Rational(4)) + LinExpr::term(y, Rational(6)),
      LinExpr(Rational(9))));
  EXPECT_EQ(s.check_relaxed(), Result::kSat);  // relaxation answer
  EXPECT_EQ(s.check(), Result::kUnsat);
}

TEST(BranchAndBound, DegenerateAndRedundantRows) {
  Solver s;
  Var x = s.new_var("x", 0, 10);
  for (int i = 0; i < 20; ++i) {
    s.add(Constraint::ge(LinExpr::term(x), LinExpr(Rational(3))));
  }
  s.add(Constraint::le(LinExpr::term(x), LinExpr(Rational(3))));
  ASSERT_EQ(s.check(), Result::kSat);
  EXPECT_EQ(s.model(x), 3);
}

}  // namespace
}  // namespace ctaver::lia
