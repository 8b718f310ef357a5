#include "util/rational.h"

#include <cstdlib>
#include <ostream>
#include <stdexcept>

namespace ctaver::util {

namespace {

/// True iff `v` is representable as a signed 64-bit integer. The simplex
/// working set lives almost entirely in this range; the Int128 paths below
/// are the correctness backstop, not the common case.
inline bool fits64(Int128 v) {
  return v >= static_cast<Int128>(INT64_MIN) &&
         v <= static_cast<Int128>(INT64_MAX);
}

/// As fits64, but additionally excluding INT64_MIN: with both operands in
/// the open range the 64-bit Euclid below can never evaluate the trapping
/// INT64_MIN % -1, and |result| is always representable.
inline bool gcd_fast64(Int128 v) {
  return v > static_cast<Int128>(INT64_MIN) &&
         v <= static_cast<Int128>(INT64_MAX);
}

/// 64-bit Euclid. Int128 division compiles to a libgcc call (__divti3), so
/// keeping the gcd loop in hardware-width registers is the single biggest
/// win of the fast path. Operands must be > INT64_MIN (see gcd_fast64).
inline long long gcd64(long long a, long long b) {
  while (b != 0) {
    long long t = a % b;
    a = b;
    b = t;
  }
  return a < 0 ? -a : a;
}

}  // namespace

void throw_overflow() {
  throw std::overflow_error("Rational: 128-bit overflow");
}

Int128 gcd128(Int128 a, Int128 b) {
  // Fast path: both operands strictly inside the 64-bit range (INT64_MIN
  // itself is excluded — a % -1 on it would trap; the slow loop below
  // handles it like any other wide value).
  if (gcd_fast64(a) && gcd_fast64(b)) {
    return gcd64(static_cast<long long>(a), static_cast<long long>(b));
  }
  // Euclid is fine on negative operands (% truncates toward zero); negating
  // only the final result keeps gcd128(INT128_MIN, k) defined unless the
  // gcd is 2^127.
  // One 128-bit step usually shrinks the operands into the fast range.
  while (b != 0) {
    Int128 t = b == -1 ? 0 : a % b;  // INT128_MIN % -1 overflows
    a = b;
    b = t;
    if (gcd_fast64(a) && gcd_fast64(b)) {
      return gcd64(static_cast<long long>(a), static_cast<long long>(b));
    }
  }
  return a < 0 ? checked_neg(a) : a;
}

Rational::Rational(Int128 num, Int128 den) : num_(num), den_(den) {
  if (den == 0) throw std::domain_error("Rational: zero denominator");
  if (den == 1) return;  // already canonical: skip the gcd entirely
  if (num == 0 || num == den) {
    // 0 and 1, the latter without a gcd: gcd128(INT128_MIN, INT128_MIN)
    // is 2^127, which does not fit.
    num_ = num == 0 ? 0 : 1;
    den_ = 1;
    return;
  }
  // Reduce before fixing the sign: -INT128_MIN is not representable, but
  // INT128_MIN / -2 is.
  const Int128 g = gcd128(num, den);
  if (g != 1) {
    num_ /= g;
    den_ /= g;
  }
  if (den_ < 0) {
    num_ = checked_neg(num_);
    den_ = checked_neg(den_);
  }
}

Int128 Rational::floor() const {
  Int128 q = num_ / den_;
  if (num_ % den_ != 0 && num_ < 0) --q;
  return q;
}

Int128 Rational::ceil() const {
  Int128 q = num_ / den_;
  if (num_ % den_ != 0 && num_ > 0) ++q;
  return q;
}

Rational Rational::frac() const { return *this - Rational(floor(), 1); }

Rational Rational::add_general(const Rational& o, bool subtract) const {
  // Same denominator: combine numerators, reduce once.
  if (den_ == o.den_) {
    return {subtract ? checked_sub(num_, o.num_) : checked_add(num_, o.num_),
            den_};
  }
  Int128 g = gcd128(den_, o.den_);
  Int128 lden = den_ / g;
  Int128 left = checked_mul(num_, o.den_ / g);
  Int128 right = checked_mul(o.num_, lden);
  Int128 num = subtract ? checked_sub(left, right) : checked_add(left, right);
  Int128 den = checked_mul(lden, o.den_);
  // The cross terms can share a factor with g only; one reduction pass
  // against g restores canonical form without a full-width gcd.
  if (g != 1) {
    Int128 g2 = gcd128(num, g);
    if (g2 > 1) {
      num /= g2;
      den /= g2;
    }
  }
  return raw(num, den);
}

Rational Rational::mul_general(const Rational& o) const {
  // Cross-reduce before multiplying to keep magnitudes small. Both factors
  // are canonical, so after cross-reduction the product is canonical too —
  // skip the constructor's gcd.
  Int128 g1 = gcd128(num_, o.den_);
  Int128 g2 = gcd128(o.num_, den_);
  return raw(checked_mul(num_ / g1, o.num_ / g2),
             checked_mul(den_ / g2, o.den_ / g1));
}

Rational Rational::operator/(const Rational& o) const {
  if (o.num_ == 0) throw std::domain_error("Rational: division by zero");
  if (num_ == 0) return {};
  // Equal numerators cancel to d / b, both positive. That also keeps
  // INT128_MIN / INT128_MIN away from gcd128, whose 2^127 does not fit.
  if (num_ == o.num_) return {o.den_, den_};
  // (a/b) / (c/d) = (a·d) / (b·c), cross-reduced like mul_general; only
  // the sign of c needs moving to the numerator.
  Int128 g1 = gcd128(num_, o.num_);
  Int128 g2 = gcd128(o.den_, den_);
  Int128 num = checked_mul(num_ / g1, o.den_ / g2);
  Int128 den = checked_mul(den_ / g2, o.num_ / g1);
  if (den < 0) return raw(checked_neg(num), checked_neg(den));
  return raw(num, den);
}

bool Rational::less_general(const Rational& o) const {
  // den_ > 0 on both sides, so cross-multiplication preserves order. In
  // 64-bit range the products fit in Int128 by construction, so the checked
  // variants are unnecessary.
  if (fits64(num_) && fits64(den_) && fits64(o.num_) && fits64(o.den_)) {
    return num_ * o.den_ < o.num_ * den_;
  }
  return checked_mul(num_, o.den_) < checked_mul(o.num_, den_);
}

std::string int128_str(Int128 v) {
  if (v == 0) return "0";
  bool neg = v < 0;
  // Avoid overflow on INT128_MIN by peeling a digit first.
  std::string digits;
  while (v != 0) {
    int d = static_cast<int>(v % 10);
    if (d < 0) d = -d;
    digits.push_back(static_cast<char>('0' + d));
    v /= 10;
  }
  if (neg) digits.push_back('-');
  return {digits.rbegin(), digits.rend()};
}

std::string Rational::str() const {
  if (den_ == 1) return int128_str(num_);
  return int128_str(num_) + "/" + int128_str(den_);
}

double Rational::to_double() const {
  return static_cast<double>(num_) / static_cast<double>(den_);
}

std::ostream& operator<<(std::ostream& os, const Rational& r) {
  return os << r.str();
}

}  // namespace ctaver::util
