// Exact rational arithmetic over 128-bit integers.
//
// The LIA solver (src/lia) runs simplex over the rationals and branches to
// integrality; all pivoting must be exact, so we use a small rational type
// with __int128 storage and overflow checks. Coefficients in threshold-guard
// systems are tiny (|a| <= ~10) and tableau growth is modest, so 128 bits is
// ample; any overflow throws std::overflow_error rather than returning a
// wrong answer, negation of INT128_MIN included.
//
// Nearly every value the solver touches is an integer, so the integer cases
// are inline in this header: +, - and * of two integers, unary -, and < and
// <= between equal denominators. Each is one denominator test plus one
// __builtin_*_overflow operation: a few instructions and no call. Every
// other case (a fractional operand, /, the gcd reduction of the
// two-argument constructor) calls the general path in rational.cpp. It
// funnels through the same checked helpers, reduces with a 64-bit gcd loop
// whenever the operands fit (128-bit division is a libgcc call), and uses
// Knuth's one-step reduction for the general sum. tests/rational_test.cpp
// pins both paths, the int64 boundary and the INT128_MIN edges.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace ctaver::util {

/// Signed 128-bit integer used as the numerator/denominator storage type.
using Int128 = __int128;

/// Throws std::overflow_error; the one exit of every checked operation.
[[noreturn]] void throw_overflow();

/// Overflow-checked 128-bit arithmetic; throws std::overflow_error instead
/// of wrapping. All Rational operations funnel through these. The overflow
/// builtins are defined behavior on signed types, so they stay clean under
/// UBSan.
inline Int128 checked_add(Int128 a, Int128 b) {
  Int128 r;
  if (__builtin_add_overflow(a, b, &r)) throw_overflow();
  return r;
}
inline Int128 checked_sub(Int128 a, Int128 b) {
  Int128 r;
  if (__builtin_sub_overflow(a, b, &r)) throw_overflow();
  return r;
}
inline Int128 checked_mul(Int128 a, Int128 b) {
  Int128 r;
  if (__builtin_mul_overflow(a, b, &r)) throw_overflow();
  return r;
}
/// -a; throws for INT128_MIN, whose negation is not representable.
inline Int128 checked_neg(Int128 a) { return checked_sub(0, a); }

/// Exact rational number with canonical form (gcd-reduced, denominator > 0).
class Rational {
 public:
  constexpr Rational() : num_(0), den_(1) {}
  // NOLINTNEXTLINE(google-explicit-constructor): implicit for literals.
  constexpr Rational(long long v) : num_(v), den_(1) {}
  /// num/den in canonical form. Reduces before fixing the sign, so
  /// Rational(INT128_MIN, -2) is 2^126; a result whose canonical form is
  /// not representable, such as Rational(1, INT128_MIN), throws.
  Rational(Int128 num, Int128 den);

  [[nodiscard]] Int128 num() const { return num_; }
  [[nodiscard]] Int128 den() const { return den_; }

  [[nodiscard]] bool is_zero() const { return num_ == 0; }
  [[nodiscard]] bool is_integer() const { return den_ == 1; }
  [[nodiscard]] bool is_negative() const { return num_ < 0; }
  [[nodiscard]] bool is_positive() const { return num_ > 0; }

  /// Largest integer <= this.
  [[nodiscard]] Int128 floor() const;
  /// Smallest integer >= this.
  [[nodiscard]] Int128 ceil() const;
  /// Fractional part: *this - floor(); always in [0, 1).
  [[nodiscard]] Rational frac() const;

  Rational operator-() const { return raw(checked_neg(num_), den_); }
  Rational operator+(const Rational& o) const {
    if (den_ == 1 && o.den_ == 1) return raw(checked_add(num_, o.num_), 1);
    return add_general(o, /*subtract=*/false);
  }
  Rational operator-(const Rational& o) const {
    if (den_ == 1 && o.den_ == 1) return raw(checked_sub(num_, o.num_), 1);
    return add_general(o, /*subtract=*/true);
  }
  Rational operator*(const Rational& o) const {
    // The product of two canonical integers is canonical.
    if (den_ == 1 && o.den_ == 1) return raw(checked_mul(num_, o.num_), 1);
    return mul_general(o);
  }
  Rational operator/(const Rational& o) const;
  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  bool operator==(const Rational& o) const {
    return num_ == o.num_ && den_ == o.den_;
  }
  bool operator!=(const Rational& o) const { return !(*this == o); }
  bool operator<(const Rational& o) const {
    if (den_ == o.den_) return num_ < o.num_;
    return less_general(o);
  }
  bool operator<=(const Rational& o) const {
    // Canonical values with unequal denominators are never equal.
    if (den_ == o.den_) return num_ <= o.num_;
    return less_general(o);
  }
  bool operator>(const Rational& o) const { return o < *this; }
  bool operator>=(const Rational& o) const { return o <= *this; }

  [[nodiscard]] std::string str() const;

  /// Converts to double (for reporting only; never used in decisions).
  [[nodiscard]] double to_double() const;

 private:
  /// num/den taken as already canonical.
  static Rational raw(Int128 num, Int128 den) {
    Rational r;
    r.num_ = num;
    r.den_ = den;
    return r;
  }
  // The general paths, for operands that are not both integers (less:
  // unequal denominators).
  [[nodiscard]] Rational add_general(const Rational& o, bool subtract) const;
  [[nodiscard]] Rational mul_general(const Rational& o) const;
  [[nodiscard]] bool less_general(const Rational& o) const;

  Int128 num_;
  Int128 den_;  // invariant: den_ > 0, gcd(|num_|, den_) == 1
};

std::ostream& operator<<(std::ostream& os, const Rational& r);

/// Prints a 128-bit integer in decimal (the standard library cannot).
std::string int128_str(Int128 v);

/// gcd of the absolute values. Negative operands are fine: the sign is
/// stripped from the final result only, so gcd128(INT128_MIN, k) is defined
/// for every k other than 0 and INT128_MIN. Those two give 2^127, which is
/// not representable, and throw std::overflow_error.
Int128 gcd128(Int128 a, Int128 b);

}  // namespace ctaver::util
