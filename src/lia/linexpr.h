// Sparse linear expressions and constraints over integer variables.
//
// These form the term language of the LIA solver (src/lia/solver.h) and of
// threshold guards (src/ta/guard.h) after compilation. Variables are dense
// integer ids handed out by the solver or by the encoding layer.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "util/rational.h"

namespace ctaver::lia {

/// Dense variable identifier. The owner of the id space (solver / encoder)
/// defines what each id means.
using Var = int;

/// Sparse linear expression  sum_i coeff_i * x_i + constant.
class LinExpr {
 public:
  LinExpr() = default;
  /// Constant expression.
  explicit LinExpr(util::Rational constant) : constant_(constant) {}
  /// Single-variable term `coeff * v`.
  static LinExpr term(Var v, util::Rational coeff = 1);

  [[nodiscard]] const std::map<Var, util::Rational>& coeffs() const {
    return coeffs_;
  }
  [[nodiscard]] const util::Rational& constant() const { return constant_; }

  /// Coefficient of `v` (zero if absent).
  [[nodiscard]] util::Rational coeff(Var v) const;

  /// Adds `c * v` to this expression (erasing the entry if it cancels).
  LinExpr& add_term(Var v, util::Rational c);
  LinExpr& add_const(util::Rational c);

  LinExpr operator+(const LinExpr& o) const;
  LinExpr operator-(const LinExpr& o) const;
  LinExpr operator*(const util::Rational& k) const;
  LinExpr operator-() const { return *this * util::Rational(-1); }
  LinExpr& operator+=(const LinExpr& o) { return *this = *this + o; }
  LinExpr& operator-=(const LinExpr& o) { return *this = *this - o; }

  [[nodiscard]] bool is_constant() const { return coeffs_.empty(); }
  bool operator==(const LinExpr& o) const = default;

  /// Evaluates under a total assignment (lookup must cover all vars).
  template <typename Lookup>  // Lookup: Var -> util::Rational
  [[nodiscard]] util::Rational eval(Lookup&& lookup) const {
    util::Rational acc = constant_;
    for (const auto& [v, c] : coeffs_) acc += c * lookup(v);
    return acc;
  }

  /// Human-readable form using `name(v)` for variable names.
  template <typename NameFn>
  [[nodiscard]] std::string str(NameFn&& name) const {
    std::string out;
    for (const auto& [v, c] : coeffs_) {
      if (!out.empty()) out += " + ";
      out += c.str() + "*" + name(v);
    }
    if (!constant_.is_zero() || out.empty()) {
      if (!out.empty()) out += " + ";
      out += constant_.str();
    }
    return out;
  }

 private:
  std::map<Var, util::Rational> coeffs_;
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

  template <typename NameFn>
  [[nodiscard]] std::string str(NameFn&& name) const {
    const char* rel_s = rel == Rel::kLe ? " <= 0" : rel == Rel::kGe ? " >= 0"
                                                                    : " == 0";
    return expr.str(name) + rel_s;
  }
};

}  // namespace ctaver::lia
