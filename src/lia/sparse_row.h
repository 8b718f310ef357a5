// Sorted sparse vector of (variable, coefficient) pairs: the one sparse
// representation of src/lia. The simplex tableau keeps each row in one
// (src/lia/solver.h), and lia::LinExpr keeps its terms in one
// (src/lia/linexpr.h). Entries are strictly ascending by variable and never
// zero, so Solver::add copies a constraint's terms into a new tableau row in
// order, with push_back alone. Iteration walks contiguous memory, and
// combining two rows is a linear two-pointer merge.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "util/rational.h"

namespace ctaver::lia {

/// Dense variable identifier. The owner of the id space (solver / encoder)
/// defines what each id means.
using Var = int;

class SparseRow {
 public:
  using Entry = std::pair<Var, util::Rational>;
  using const_iterator = std::vector<Entry>::const_iterator;

  SparseRow() = default;

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }
  void clear() { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  /// Iterator to the entry for `v`, or end() if absent. O(log n).
  [[nodiscard]] const_iterator find(Var v) const {
    auto it = lower_bound(v);
    return (it != entries_.end() && it->first == v)
               ? const_iterator(it)
               : entries_.cend();
  }
  [[nodiscard]] bool contains(Var v) const { return find(v) != end(); }

  /// Coefficient of `v` (zero if absent).
  [[nodiscard]] util::Rational coeff(Var v) const {
    auto it = find(v);
    return it == end() ? util::Rational(0) : it->second;
  }

  /// Appends an entry with a variable id strictly greater than every id in
  /// the row. O(1); the fast path for building rows in ascending var order.
  void push_back(Var v, util::Rational c) {
    entries_.emplace_back(v, std::move(c));
  }

  /// Inserts or adds to the entry for `v`, erasing it on cancellation. A
  /// variable past the last entry (rows are mostly built in ascending order)
  /// is appended without a search.
  void add(Var v, const util::Rational& c) {
    if (entries_.empty() || entries_.back().first < v) {
      if (!c.is_zero()) entries_.emplace_back(v, c);
      return;
    }
    auto it = lower_bound(v);
    if (it != entries_.end() && it->first == v) {
      it->second += c;
      if (it->second.is_zero()) entries_.erase(it);
    } else if (!c.is_zero()) {
      entries_.emplace(it, v, c);
    }
  }

  /// Removes the entry for `v` if present.
  void erase(Var v) {
    auto it = lower_bound(v);
    if (it != entries_.end() && it->first == v) entries_.erase(it);
  }

  /// In-place `*this = *this * k` (k must be nonzero).
  void scale(const util::Rational& k) {
    for (Entry& e : entries_) e.second *= k;
  }

  /// `*this += c * other`, dropping every entry for variable `skip` from the
  /// result (pass -1 to keep all entries). Linear two-pointer merge into a
  /// scratch buffer supplied by the caller so repeated combinations reuse
  /// one allocation. When `added` is non-null it receives the variables
  /// that are new to this row (present in `other` only, with a nonzero
  /// result) — the solver's column index uses this to stay exact.
  void add_multiple(const util::Rational& c, const SparseRow& other, Var skip,
                    std::vector<Entry>* scratch,
                    std::vector<Var>* added = nullptr) {
    scratch->clear();
    scratch->reserve(entries_.size() + other.entries_.size());
    auto a = entries_.cbegin(), ae = entries_.cend();
    auto b = other.entries_.cbegin(), be = other.entries_.cend();
    while (a != ae || b != be) {
      if (b == be || (a != ae && a->first < b->first)) {
        if (a->first != skip) scratch->push_back(*a);
        ++a;
      } else if (a == ae || b->first < a->first) {
        if (b->first != skip) {
          util::Rational v = c * b->second;
          if (!v.is_zero()) {
            if (added != nullptr) added->push_back(b->first);
            scratch->emplace_back(b->first, std::move(v));
          }
        }
        ++b;
      } else {  // same var
        if (a->first != skip) {
          util::Rational v = a->second + c * b->second;
          if (!v.is_zero()) scratch->emplace_back(a->first, std::move(v));
        }
        ++a;
        ++b;
      }
    }
    entries_.swap(*scratch);
  }

  bool operator==(const SparseRow& o) const = default;

 private:
  [[nodiscard]] std::vector<Entry>::iterator lower_bound(Var v) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), v,
        [](const Entry& e, Var x) { return e.first < x; });
  }
  [[nodiscard]] std::vector<Entry>::const_iterator lower_bound(Var v) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), v,
        [](const Entry& e, Var x) { return e.first < x; });
  }

  std::vector<Entry> entries_;  // invariant: strictly ascending by Var
};

}  // namespace ctaver::lia
