// Sparse linear expressions and constraints over integer variables.
//
// These form the term language of the LIA solver (src/lia/solver.h); the
// schema checker (src/schema) builds its queries in it. Variables are dense
// integer ids handed out by the solver. Terms live in a SparseRow, the
// representation the solver's tableau rows use as well, and every in-place
// operation keeps it sorted and zero-free.
#pragma once

#include "lia/sparse_row.h"
#include "util/rational.h"

namespace ctaver::lia {

/// Sparse linear expression  sum_i coeff_i * x_i + constant.
class LinExpr {
 public:
  LinExpr() = default;
  /// Constant expression.
  explicit LinExpr(util::Rational constant) : constant_(constant) {}
  /// Single-variable term `coeff * v`.
  static LinExpr term(Var v, util::Rational coeff = 1);

  /// The nonzero terms, strictly ascending by variable.
  [[nodiscard]] const SparseRow& coeffs() const { return coeffs_; }
  [[nodiscard]] const util::Rational& constant() const { return constant_; }

  /// Coefficient of `v` (zero if absent).
  [[nodiscard]] util::Rational coeff(Var v) const { return coeffs_.coeff(v); }

  /// Makes this the zero expression, keeping the term buffer's capacity.
  void clear() {
    coeffs_.clear();
    constant_ = 0;
  }

  /// Adds `c * v` to this expression (erasing the entry if it cancels).
  LinExpr& add_term(Var v, const util::Rational& c) {
    coeffs_.add(v, c);
    return *this;
  }
  LinExpr& add_const(const util::Rational& c) {
    constant_ += c;
    return *this;
  }
  /// `*this += k * o` in place: one merge through a per-thread buffer, no
  /// temporary expression.
  LinExpr& add_scaled(const LinExpr& o, const util::Rational& k);

  LinExpr operator+(const LinExpr& o) const {
    LinExpr out = *this;
    out += o;
    return out;
  }
  LinExpr operator-(const LinExpr& o) const {
    LinExpr out = *this;
    out -= o;
    return out;
  }
  LinExpr operator*(const util::Rational& k) const;
  LinExpr operator-() const { return *this * util::Rational(-1); }
  LinExpr& operator+=(const LinExpr& o) { return add_scaled(o, 1); }
  LinExpr& operator-=(const LinExpr& o) { return add_scaled(o, -1); }

  [[nodiscard]] bool is_constant() const { return coeffs_.empty(); }
  bool operator==(const LinExpr& o) const = default;

  /// Evaluates under a total assignment (lookup must cover all vars).
  template <typename Lookup>  // Lookup: Var -> util::Rational
  [[nodiscard]] util::Rational eval(Lookup&& lookup) const {
    util::Rational acc = constant_;
    for (const auto& [v, c] : coeffs_) acc += c * lookup(v);
    return acc;
  }

 private:
  SparseRow coeffs_;
  util::Rational constant_;
};

/// Relation of a constraint `expr REL 0`.
enum class Rel { kLe, kGe, kEq };

/// Linear constraint in the normal form `expr REL 0`.
struct Constraint {
  LinExpr expr;
  Rel rel = Rel::kGe;

  /// expr <= 0
  static Constraint le0(LinExpr e) { return {std::move(e), Rel::kLe}; }
  /// expr >= 0
  static Constraint ge0(LinExpr e) { return {std::move(e), Rel::kGe}; }
  /// expr == 0
  static Constraint eq0(LinExpr e) { return {std::move(e), Rel::kEq}; }
  /// a <= b
  static Constraint le(const LinExpr& a, const LinExpr& b) {
    return le0(a - b);
  }
  /// a >= b
  static Constraint ge(const LinExpr& a, const LinExpr& b) {
    return ge0(a - b);
  }
  /// a == b
  static Constraint eq(const LinExpr& a, const LinExpr& b) {
    return eq0(a - b);
  }
  /// a > b over integers, i.e. a >= b + 1.
  static Constraint gt_int(const LinExpr& a, const LinExpr& b) {
    return ge0(a - b - LinExpr(util::Rational(1)));
  }

  /// Logical negation over integer semantics:
  ///   not(e <= 0)  ==  e >= 1;   not(e >= 0)  ==  e <= -1.
  /// Equalities cannot be negated into one linear constraint; callers split.
  [[nodiscard]] Constraint negate_int() const;
};

}  // namespace ctaver::lia
