// Unit tests for the LIA solver (src/lia): linear expressions, simplex
// feasibility, integrality branching, minimization, and entailment.
#include "lia/solver.h"

#include <gtest/gtest.h>

namespace ctaver::lia {
namespace {

using util::Rational;

LinExpr konst(long long k) { return LinExpr(Rational(k)); }

TEST(LinExpr, TermAlgebra) {
  LinExpr e = LinExpr::term(0, Rational(2)) + LinExpr::term(1, Rational(-1));
  e.add_const(Rational(5));
  EXPECT_EQ(e.coeff(0), Rational(2));
  EXPECT_EQ(e.coeff(1), Rational(-1));
  EXPECT_EQ(e.coeff(7), Rational(0));
  EXPECT_EQ(e.constant(), Rational(5));

  // Cancellation erases entries.
  e.add_term(0, Rational(-2));
  EXPECT_EQ(e.coeff(0), Rational(0));
  EXPECT_EQ(e.coeffs().size(), 1u);
}

TEST(LinExpr, Eval) {
  LinExpr e = LinExpr::term(0, Rational(3)) + LinExpr::term(2, Rational(1));
  e.add_const(Rational(-4));
  auto lookup = [](Var v) { return Rational(v + 1); };  // x0=1, x2=3
  EXPECT_EQ(e.eval(lookup), Rational(2));
}

TEST(LinExpr, NegateInt) {
  // not(x - 3 >= 0)  ->  x - 3 <= -1  i.e.  x <= 2.
  Constraint c = Constraint::ge0(LinExpr::term(0) - konst(3));
  Constraint n = c.negate_int();
  EXPECT_EQ(n.rel, Rel::kLe);
  EXPECT_EQ(n.expr.constant(), Rational(-2));
  EXPECT_THROW(Constraint::eq0(LinExpr::term(0)).negate_int(),
               std::logic_error);
}

TEST(Solver, TrivialSat) {
  Solver s;
  Var x = s.new_var(0);
  s.add(Constraint::ge(LinExpr::term(x), konst(5)));
  ASSERT_EQ(s.check(), Result::kSat);
  EXPECT_GE(s.model(x), 5);
}

TEST(Solver, TrivialUnsat) {
  Solver s;
  Var x = s.new_var(0);
  s.add(Constraint::ge(LinExpr::term(x), konst(5)));
  s.add(Constraint::le(LinExpr::term(x), konst(4)));
  EXPECT_EQ(s.check(), Result::kUnsat);
}

TEST(Solver, ConstantConstraints) {
  Solver s;
  (void)s.new_var(0);
  s.add(Constraint::ge(konst(3), konst(3)));
  EXPECT_EQ(s.check(), Result::kSat);
  s.add(Constraint::ge(konst(2), konst(3)));
  EXPECT_EQ(s.check(), Result::kUnsat);
}

TEST(Solver, SystemOfEqualities) {
  // x + y == 10, x - y == 4  ->  x=7, y=3.
  Solver s;
  Var x = s.new_var(0);
  Var y = s.new_var(0);
  s.add(Constraint::eq(LinExpr::term(x) + LinExpr::term(y), konst(10)));
  s.add(Constraint::eq(LinExpr::term(x) - LinExpr::term(y), konst(4)));
  ASSERT_EQ(s.check(), Result::kSat);
  EXPECT_EQ(s.model(x), 7);
  EXPECT_EQ(s.model(y), 3);
}

TEST(Solver, IntegralityForcesBranching) {
  // 2x == 2y + 1 has rational solutions but no integer ones; the bounded
  // window makes branch & bound terminate with UNSAT.
  Solver opts_solver(SolverOptions{.default_lo = 0, .default_hi = 1000});
  Var x = opts_solver.new_var(0);
  Var y = opts_solver.new_var(0);
  opts_solver.add(Constraint::eq(LinExpr::term(x, Rational(2)),
                                 LinExpr::term(y, Rational(2)) + konst(1)));
  EXPECT_EQ(opts_solver.check(), Result::kUnsat);
}

TEST(Solver, IntegralitySatCase) {
  // 3x + 5y == 7, x,y >= 0: x=4,y=-1 invalid; integer solution x=4? no:
  // 3*4=12>7. Solutions: x= -1 mod... valid: x=4,y=-1 excluded; x= -? The
  // only nonneg integer solution is x=4? Check: y=(7-3x)/5 integer >= 0 ->
  // x=4 gives -1; x= -2 invalid... actually 3*(-1)+5*2=7. With x,y>=0 there
  // is no solution; with x >= -5 there is.
  Solver s;
  Var x = s.new_var(-5);
  Var y = s.new_var(0);
  s.add(Constraint::eq(
      LinExpr::term(x, Rational(3)) + LinExpr::term(y, Rational(5)),
      konst(7)));
  ASSERT_EQ(s.check(), Result::kSat);
  util::Int128 vx = s.model(x), vy = s.model(y);
  EXPECT_EQ(3 * vx + 5 * vy, 7);
}

TEST(Solver, ThresholdGuardStyleSystem) {
  // A miniature resilience-condition query: n > 3t, t >= f >= 0,
  // b0 >= 2t + 1 - f, b0 <= n - f. Must be satisfiable.
  Solver s;
  Var n = s.new_var(1);
  Var t = s.new_var(0);
  Var f = s.new_var(0);
  Var b0 = s.new_var(0);
  s.add(Constraint::gt_int(LinExpr::term(n), LinExpr::term(t, Rational(3))));
  s.add(Constraint::ge(LinExpr::term(t), LinExpr::term(f)));
  s.add(Constraint::ge(LinExpr::term(b0),
                       LinExpr::term(t, Rational(2)) + konst(1) -
                           LinExpr::term(f)));
  s.add(Constraint::le(LinExpr::term(b0),
                       LinExpr::term(n) - LinExpr::term(f)));
  ASSERT_EQ(s.check(), Result::kSat);
  // And with the contradictory cap b0 < 1 and t >= 1, f = 0 it is UNSAT.
  s.add(Constraint::ge(LinExpr::term(t), konst(1)));
  s.add(Constraint::le(LinExpr::term(f), konst(0)));
  s.add(Constraint::le(LinExpr::term(b0), konst(0)));
  EXPECT_EQ(s.check(), Result::kUnsat);
}

TEST(Solver, Minimize) {
  Solver s;
  Var x = s.new_var(0);
  Var y = s.new_var(0);
  // x + 2y >= 7, x <= 4.
  s.add(Constraint::ge(LinExpr::term(x) + LinExpr::term(y, Rational(2)),
                       konst(7)));
  s.add(Constraint::le(LinExpr::term(x), konst(4)));
  ASSERT_EQ(s.minimize(LinExpr::term(x) + LinExpr::term(y)), Result::kSat);
  // Optimum: maximize use of y? objective x+y minimized at x=4? x=4 -> y>=2
  // (ceil(3/2)) -> obj 6? x=3 -> y>=2 -> 5; x=1 -> y>=3 -> 4; x=0 -> y>=4
  // -> 4... best is 4? x=1,y=3 -> 4. obj=4.
  EXPECT_EQ(s.model(x) + s.model(y), 4);
}

TEST(Solver, MinimizeFindsSmallParameters) {
  // Counterexample-shrinking scenario: n > 3t, t >= 1, n - f >= 2t + 1.
  Solver s;
  Var n = s.new_var(1);
  Var t = s.new_var(0);
  Var f = s.new_var(0);
  s.add(Constraint::gt_int(LinExpr::term(n), LinExpr::term(t, Rational(3))));
  s.add(Constraint::ge(LinExpr::term(t), konst(1)));
  s.add(Constraint::ge(LinExpr::term(t), LinExpr::term(f)));
  ASSERT_EQ(s.minimize(LinExpr::term(n)), Result::kSat);
  EXPECT_EQ(s.model(n), 4);
  EXPECT_EQ(s.model(t), 1);
}

TEST(Solver, EntailmentYes) {
  Solver s;
  Var x = s.new_var(0);
  s.add(Constraint::ge(LinExpr::term(x), konst(5)));
  // x >= 5 entails x >= 3.
  EXPECT_EQ(entails(s, Constraint::ge(LinExpr::term(x), konst(3))),
            Entailment::kYes);
}

TEST(Solver, EntailmentNo) {
  Solver s;
  Var x = s.new_var(0);
  s.add(Constraint::ge(LinExpr::term(x), konst(3)));
  EXPECT_EQ(entails(s, Constraint::ge(LinExpr::term(x), konst(5))),
            Entailment::kNo);
}

TEST(Solver, EntailmentEquality) {
  Solver s;
  Var x = s.new_var(0);
  s.add(Constraint::ge(LinExpr::term(x), konst(4)));
  s.add(Constraint::le(LinExpr::term(x), konst(4)));
  EXPECT_EQ(entails(s, Constraint::eq(LinExpr::term(x), konst(4))),
            Entailment::kYes);
  Solver s2;
  Var y = s2.new_var(0, 10);
  EXPECT_EQ(entails(s2, Constraint::eq(LinExpr::term(y), konst(4))),
            Entailment::kNo);
}

TEST(Solver, UnknownVariableRejected) {
  Solver s;
  EXPECT_THROW(s.add(Constraint::ge0(LinExpr::term(3))), std::out_of_range);
}

TEST(Solver, ModelBeforeCheckThrows) {
  Solver s;
  Var x = s.new_var();
  EXPECT_THROW((void)s.model(x), std::logic_error);
}

// Parameterized sweep: for every (t, f) with f <= t <= 5, the MMR14-style
// guard system {n > 3t, b >= 2t+1-f, b <= n-f} has a solution with the
// minimal n = 3t + 1.
class GuardSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GuardSweep, MinimalNIsThreeTPlusOne) {
  auto [t_val, f_val] = GetParam();
  Solver s;
  Var n = s.new_var(1);
  Var t = s.new_var(0);
  Var f = s.new_var(0);
  Var b = s.new_var(0);
  s.add(Constraint::eq(LinExpr::term(t), konst(t_val)));
  s.add(Constraint::eq(LinExpr::term(f), konst(f_val)));
  s.add(Constraint::gt_int(LinExpr::term(n), LinExpr::term(t, Rational(3))));
  s.add(Constraint::ge(
      LinExpr::term(b),
      LinExpr::term(t, Rational(2)) + konst(1) - LinExpr::term(f)));
  s.add(Constraint::le(LinExpr::term(b), LinExpr::term(n) - LinExpr::term(f)));
  ASSERT_EQ(s.minimize(LinExpr::term(n)), Result::kSat);
  EXPECT_EQ(s.model(n), 3 * t_val + 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllTF, GuardSweep,
    ::testing::Values(std::pair{0, 0}, std::pair{1, 0}, std::pair{1, 1},
                      std::pair{2, 1}, std::pair{3, 3}, std::pair{5, 2},
                      std::pair{5, 5}));

}  // namespace
}  // namespace ctaver::lia
