// Unit tests for exact rational arithmetic (src/util/rational.h).
#include "util/rational.h"

#include <gtest/gtest.h>

#include <sstream>

namespace ctaver::util {
namespace {

TEST(Rational, DefaultIsZero) {
  Rational r;
  EXPECT_TRUE(r.is_zero());
  EXPECT_TRUE(r.is_integer());
  EXPECT_EQ(r.str(), "0");
}

TEST(Rational, CanonicalForm) {
  Rational r(6, 4);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 2);
  Rational neg(3, -6);
  EXPECT_EQ(neg.num(), -1);
  EXPECT_EQ(neg.den(), 2);
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW(Rational(1, 0), std::domain_error);
}

TEST(Rational, Arithmetic) {
  Rational a(1, 2), b(1, 3);
  EXPECT_EQ((a + b), Rational(5, 6));
  EXPECT_EQ((a - b), Rational(1, 6));
  EXPECT_EQ((a * b), Rational(1, 6));
  EXPECT_EQ((a / b), Rational(3, 2));
  EXPECT_EQ(-a, Rational(-1, 2));
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW(Rational(1, 2) / Rational(0, 1), std::domain_error);
}

TEST(Rational, Comparison) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(7, 2), Rational(3));
  EXPECT_GE(Rational(3), Rational(3));
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(4).floor(), 4);
  EXPECT_EQ(Rational(4).ceil(), 4);
}

TEST(Rational, Frac) {
  EXPECT_EQ(Rational(7, 2).frac(), Rational(1, 2));
  EXPECT_EQ(Rational(-7, 2).frac(), Rational(1, 2));
  EXPECT_TRUE(Rational(5).frac().is_zero());
}

TEST(Rational, Printing) {
  std::ostringstream os;
  os << Rational(-3, 7);
  EXPECT_EQ(os.str(), "-3/7");
  EXPECT_EQ(Rational(42).str(), "42");
}

TEST(Rational, Int128Printing) {
  Int128 big = Int128(1'000'000'000'000'000'000LL) * 1000;
  EXPECT_EQ(int128_str(big), "1000000000000000000000");
  EXPECT_EQ(int128_str(-big), "-1000000000000000000000");
  EXPECT_EQ(int128_str(0), "0");
}

TEST(Rational, Gcd) {
  EXPECT_EQ(gcd128(12, 18), 6);
  EXPECT_EQ(gcd128(-12, 18), 6);
  EXPECT_EQ(gcd128(0, 7), 7);
  EXPECT_EQ(gcd128(7, 0), 7);
}

TEST(Rational, LargeValuesStayExact) {
  Rational big(Int128(1) << 80, 3);
  Rational sum = big + big + big;
  EXPECT_TRUE(sum.is_integer());
  EXPECT_EQ(sum.num(), Int128(1) << 80);
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-5).to_double(), -5.0);
}

// --- overflow paths near the Int128 limits ---------------------------------

constexpr Int128 kInt128Max = ~(Int128(1) << 127);
constexpr Int128 kInt128Min = Int128(1) << 127;

TEST(Rational, CheckedAddNearLimits) {
  EXPECT_EQ(checked_add(kInt128Max, 0), kInt128Max);
  EXPECT_EQ(checked_add(kInt128Max - 1, 1), kInt128Max);
  EXPECT_EQ(checked_add(kInt128Min, kInt128Max), Int128(-1));
  EXPECT_THROW(checked_add(kInt128Max, 1), std::overflow_error);
  EXPECT_THROW(checked_add(kInt128Min, -1), std::overflow_error);
  EXPECT_THROW(checked_add(kInt128Min, kInt128Min), std::overflow_error);
}

TEST(Rational, CheckedMulNearLimits) {
  EXPECT_EQ(checked_mul(kInt128Max, 1), kInt128Max);
  EXPECT_EQ(checked_mul(kInt128Min, 1), kInt128Min);
  EXPECT_EQ(checked_mul(kInt128Max / 2, 2), kInt128Max - 1);
  EXPECT_EQ(checked_mul(0, kInt128Max), Int128(0));
  EXPECT_THROW(checked_mul(kInt128Max, 2), std::overflow_error);
  EXPECT_THROW(checked_mul(kInt128Max / 2 + 1, 2), std::overflow_error);
  // -INT128_MIN is not representable.
  EXPECT_THROW(checked_mul(kInt128Min, -1), std::overflow_error);
  EXPECT_THROW(checked_mul(Int128(1) << 64, Int128(1) << 64),
               std::overflow_error);
}

TEST(Rational, ArithmeticOverflowThrows) {
  Rational huge(kInt128Max, 1);
  EXPECT_THROW(huge + Rational(1), std::overflow_error);
  EXPECT_THROW(huge * Rational(2), std::overflow_error);
  // Denominators multiply in +: 1/p + 1/q with huge coprime p, q overflows.
  Rational a(1, kInt128Max), b(1, kInt128Max - 1);
  EXPECT_THROW(a + b, std::overflow_error);
}

// --- INT128_MIN: negation and sign normalization ---------------------------
//
// -INT128_MIN is not representable, so every path that negates is checked:
// a result that fits comes out canonical, one that does not throws.

TEST(Rational, NegatingInt128MinThrows) {
  EXPECT_THROW(-Rational(kInt128Min, 1), std::overflow_error);
  EXPECT_THROW(-Rational(kInt128Min, 3), std::overflow_error);
  EXPECT_THROW(Rational(0) - Rational(kInt128Min, 1), std::overflow_error);
  EXPECT_THROW(Rational(1, 3) - Rational(kInt128Min, 3), std::overflow_error);
  EXPECT_EQ((-Rational(kInt128Max, 1)).num(), kInt128Min + 1);
  // A difference that fits is exact, even though -INT128_MIN does not.
  EXPECT_EQ(Rational(-1) - Rational(kInt128Min, 1), Rational(kInt128Max, 1));
  EXPECT_EQ(Rational(-1, 3) - Rational(kInt128Min, 3),
            Rational(kInt128Max, 3));
}

TEST(Rational, SignNormalizationReducesFirst) {
  // Reduced before the sign moves: INT128_MIN / -2 is 2^126.
  Rational r(kInt128Min, -2);
  EXPECT_EQ(r.num(), Int128(1) << 126);
  EXPECT_EQ(r.den(), 1);
  Rational q(kInt128Min, -6);
  EXPECT_EQ(q.num(), Int128(1) << 126);
  EXPECT_EQ(q.den(), 3);
  EXPECT_EQ(Rational(0, kInt128Min), Rational(0));
  // 1 / INT128_MIN needs the denominator 2^127.
  EXPECT_THROW(Rational(1, kInt128Min), std::overflow_error);
  EXPECT_THROW(Rational(1) / Rational(kInt128Min, 1), std::overflow_error);
  // 2 / INT128_MIN is -1 / 2^126: the denominator stays positive.
  Rational d = Rational(2) / Rational(kInt128Min, 1);
  EXPECT_EQ(d.num(), -1);
  EXPECT_EQ(d.den(), Int128(1) << 126);
  EXPECT_EQ(Rational(-3, 4) / Rational(-3, 8), Rational(2));
  // The gcd 2^127 is not representable either.
  EXPECT_THROW(gcd128(kInt128Min, 0), std::overflow_error);
  EXPECT_THROW(gcd128(kInt128Min, kInt128Min), std::overflow_error);
  EXPECT_EQ(gcd128(kInt128Min, 6), 2);
}

TEST(Rational, Int128MinOverItselfIsOne) {
  // 1 is representable although the gcd 2^127 is not.
  EXPECT_EQ(Rational(kInt128Min, kInt128Min), Rational(1));
  EXPECT_EQ(Rational(kInt128Min, 1) / Rational(kInt128Min, 1), Rational(1));
  EXPECT_EQ(Rational(kInt128Min, 1) / Rational(kInt128Min, 3), Rational(3));
  EXPECT_EQ(Rational(kInt128Min, 3) / Rational(kInt128Min, 1),
            Rational(1, 3));
  // Still unrepresentable: 2^127 in the denominator or the numerator.
  EXPECT_THROW(Rational(1, kInt128Min), std::overflow_error);
  EXPECT_THROW(Rational(kInt128Min, -1), std::overflow_error);
}

// --- int64 fast path: exactness across the 64-bit boundary -----------------
//
// The arithmetic operators take hardware-width shortcuts whenever both
// operands fit in int64; these tests pin the boundary where the shortcut
// must hand over to the Int128 path without losing exactness.

constexpr long long kI64Max = 9'223'372'036'854'775'807LL;
constexpr long long kI64Min = -kI64Max - 1;

TEST(Rational, Int64BoundaryAddition) {
  // INT64_MAX + 1 leaves the fast path; the result must be exact Int128.
  Rational r = Rational(kI64Max) + Rational(1);
  EXPECT_EQ(r.num(), Int128(kI64Max) + 1);
  EXPECT_EQ(r.den(), 1);
  EXPECT_EQ(r.str(), "9223372036854775808");
  Rational s = Rational(kI64Min) + Rational(-1);
  EXPECT_EQ(s.num(), Int128(kI64Min) - 1);
  // And adding values already past the boundary keeps working.
  Rational t = r + r;
  EXPECT_EQ(t.num(), (Int128(kI64Max) + 1) * 2);
}

TEST(Rational, Int64BoundaryMultiplication) {
  // INT64_MAX * INT64_MAX overflows int64 by far but is exact in Int128.
  Rational r = Rational(kI64Max) * Rational(kI64Max);
  EXPECT_EQ(r.num(), Int128(kI64Max) * Int128(kI64Max));
  EXPECT_EQ(r.den(), 1);
  Rational s = Rational(kI64Min) * Rational(kI64Min);
  EXPECT_EQ(s.num(), Int128(kI64Min) * Int128(kI64Min));
}

TEST(Rational, Int64BoundaryComparison) {
  // Cross-multiplication products straddle the 64-bit boundary.
  Rational a(kI64Max, 2);
  Rational b(kI64Max - 1, 2);
  EXPECT_LT(b, a);
  EXPECT_GT(a, b);
  Rational c(Int128(kI64Max) * 3, 5);  // (3/5)·M
  Rational d(Int128(kI64Max) * 2, 3);  // (2/3)·M  >  (3/5)·M
  EXPECT_LT(c, d);
  EXPECT_LT(Rational(kI64Min), Rational(kI64Max));
}

TEST(Rational, Int64BoundaryGcdReduction) {
  // gcd crossing the fast path: operands just past int64 range.
  Int128 big = Int128(kI64Max) + 1;            // 2^63
  EXPECT_EQ(gcd128(big, 2), 2);
  EXPECT_EQ(gcd128(big * 3, big), big);
  EXPECT_EQ(gcd128(Int128(kI64Min), 2), 2);    // |INT64_MIN| handled
  EXPECT_EQ(gcd128(Int128(kI64Min), Int128(kI64Min)), -Int128(kI64Min));
  Rational r(big * 6, big * 4);                // reduces to 3/2 beyond 64 bits
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 2);
}

TEST(Rational, GcdInt64MinWithMinusOneDoesNotTrap) {
  // Regression: INT64_MIN alongside -1 must not reach the 64-bit Euclid,
  // whose INT64_MIN % -1 step would trap. All four orderings are defined.
  EXPECT_EQ(gcd128(Int128(-1), Int128(kI64Min)), 1);
  EXPECT_EQ(gcd128(Int128(kI64Min), Int128(-1)), 1);
  EXPECT_EQ(gcd128(Int128(1), Int128(kI64Min)), 1);
  EXPECT_EQ(gcd128(Int128(kI64Min), Int128(3)), 1);
  EXPECT_EQ(gcd128(Int128(kI64Min), Int128(-4)), 4);
}

TEST(Rational, MixedWidthSums) {
  // A same-denominator sum whose numerator crosses the boundary, then
  // shrinks back into range: canonical form must hold at every step.
  Rational a(kI64Max, 7);
  Rational b(5, 7);
  Rational c = a + b;  // (INT64_MAX + 5) / 7; 9223372036854775812/7 reduces?
  EXPECT_EQ(c.num() * 1, Int128(kI64Max) + 5);
  EXPECT_EQ(c.den(), 7);
  Rational d = c - a;
  EXPECT_EQ(d, b);
}

TEST(Rational, Int128MinPrinting) {
  EXPECT_EQ(int128_str(kInt128Min),
            "-170141183460469231731687303715884105728");
  EXPECT_EQ(int128_str(kInt128Max),
            "170141183460469231731687303715884105727");
  EXPECT_EQ(Rational(kInt128Min, 1).str(),
            "-170141183460469231731687303715884105728");
}

}  // namespace
}  // namespace ctaver::util
