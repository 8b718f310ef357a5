#include "lia/linexpr.h"

#include <stdexcept>
#include <vector>

namespace ctaver::lia {

LinExpr LinExpr::term(Var v, util::Rational coeff) {
  LinExpr e;
  e.add_term(v, coeff);
  return e;
}

LinExpr& LinExpr::add_scaled(const LinExpr& o, const util::Rational& k) {
  if (k.is_zero()) return *this;
  constant_ += k * o.constant_;
  if (o.coeffs_.empty()) return *this;
  // add_multiple swaps the merged entries in, so this expression and the
  // thread's buffer trade storage: an expression merged into again and
  // again (the schema encoder's reused constraint) stops allocating once
  // both buffers have grown.
  thread_local std::vector<SparseRow::Entry> scratch;
  coeffs_.add_multiple(k, o.coeffs_, /*skip=*/-1, &scratch);
  return *this;
}

LinExpr LinExpr::operator*(const util::Rational& k) const {
  if (k.is_zero()) return LinExpr{};
  LinExpr out = *this;
  out.constant_ *= k;
  out.coeffs_.scale(k);
  return out;
}

Constraint Constraint::negate_int() const {
  switch (rel) {
    case Rel::kLe:  // not(e <= 0)  ->  e >= 1
      return Constraint::ge0(expr - LinExpr(util::Rational(1)));
    case Rel::kGe:  // not(e >= 0)  ->  e <= -1
      return Constraint::le0(expr + LinExpr(util::Rational(1)));
    case Rel::kEq:
      throw std::logic_error(
          "Constraint::negate_int: equality negation is a disjunction; "
          "split at the call site");
  }
  throw std::logic_error("unreachable");
}

}  // namespace ctaver::lia
