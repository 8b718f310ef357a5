#include "lia/solver.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/logging.h"

namespace ctaver::lia {

using util::Int128;
using util::Rational;

// Budgets of one check(), pivots counted over all B&B nodes. Running out of
// either makes the check kUnknown.
constexpr long long kMaxPivots = 2'000'000;
constexpr long long kMaxNodes = 200'000;

// ---------------------------------------------------------------------------
// Variables and bounds
// ---------------------------------------------------------------------------

int Solver::alloc_internal(std::optional<Rational> lb,
                           std::optional<Rational> ub) {
  int iv = static_cast<int>(beta_.size());
  // Start within bounds, preferring 0 (basic slacks overwrite beta later).
  Rational init(0);
  if (lb && init < *lb) init = *lb;
  if (ub && init > *ub) init = *ub;
  if (lb && ub && *lb > *ub) ++conflicts_;
  lb_.push_back(std::move(lb));
  ub_.push_back(std::move(ub));
  beta_.push_back(std::move(init));
  row_of_.push_back(-1);
  cols_.emplace_back();
  owner_.push_back(-1);
  return iv;
}

void Solver::index_row_vars(int r, const SparseRow& row) {
  for (const auto& [v, c] : row) {
    (void)c;
    cols_[static_cast<std::size_t>(v)].push_back(r);
  }
}

template <typename F>
void Solver::for_each_row_with(int iv, F&& f) {
  std::vector<int>& lst = cols_[static_cast<std::size_t>(iv)];
  if (++sweep_stamp_ == 0) {  // stamp wrapped: old stamps are ambiguous
    std::fill(row_sweep_.begin(), row_sweep_.end(), 0u);
    sweep_stamp_ = 1;
  }
  std::size_t out = 0;
  for (int r : lst) {
    if (r >= static_cast<int>(rows_.size())) continue;  // row vanished
    if (row_sweep_[static_cast<std::size_t>(r)] == sweep_stamp_) {
      continue;  // duplicate entry
    }
    auto it = rows_[static_cast<std::size_t>(r)].find(iv);
    if (it == rows_[static_cast<std::size_t>(r)].end()) continue;  // stale
    row_sweep_[static_cast<std::size_t>(r)] = sweep_stamp_;
    lst[out++] = r;
    f(r, it->second);
  }
  lst.resize(out);
}

Var Solver::new_var(std::optional<long long> lb,
                    std::optional<long long> ub) {
  std::optional<Rational> rlb, rub;
  if (lb) rlb = Rational(*lb);
  if (ub) rub = Rational(*ub);
  int iv = alloc_internal(std::move(rlb), std::move(rub));
  ext2int_.push_back(iv);
  return static_cast<Var>(ext2int_.size() - 1);
}

bool Solver::below_lb(int iv) const {
  const auto& b = lb_[static_cast<std::size_t>(iv)];
  return b.has_value() && beta_[static_cast<std::size_t>(iv)] < *b;
}

bool Solver::above_ub(int iv) const {
  const auto& b = ub_[static_cast<std::size_t>(iv)];
  return b.has_value() && beta_[static_cast<std::size_t>(iv)] > *b;
}

bool Solver::above_at_ub(int iv) const {
  const auto& b = ub_[static_cast<std::size_t>(iv)];
  return b.has_value() && beta_[static_cast<std::size_t>(iv)] >= *b;
}

bool Solver::below_at_lb(int iv) const {
  const auto& b = lb_[static_cast<std::size_t>(iv)];
  return b.has_value() && beta_[static_cast<std::size_t>(iv)] <= *b;
}

bool Solver::bound_conflict(int iv) const {
  const auto& lo = lb_[static_cast<std::size_t>(iv)];
  const auto& hi = ub_[static_cast<std::size_t>(iv)];
  return lo.has_value() && hi.has_value() && *lo > *hi;
}

void Solver::assert_lower(int iv, const Rational& v) {
  auto& lo = lb_[static_cast<std::size_t>(iv)];
  if (lo && *lo >= v) return;  // not tighter
  bool was_conflict = bound_conflict(iv);
  trail_.push_back({iv, /*upper=*/false, lo});
  lo = v;
  if (!was_conflict && bound_conflict(iv)) ++conflicts_;
  if (!is_basic(iv) && beta_[static_cast<std::size_t>(iv)] < v) {
    update_nonbasic(iv, v);
  }
  // A basic variable pushed outside its bounds is picked up by the next
  // solve()'s seed scan; the violated-basic heap is solve-local.
}

void Solver::assert_upper(int iv, const Rational& v) {
  auto& hi = ub_[static_cast<std::size_t>(iv)];
  if (hi && *hi <= v) return;  // not tighter
  bool was_conflict = bound_conflict(iv);
  trail_.push_back({iv, /*upper=*/true, hi});
  hi = v;
  if (!was_conflict && bound_conflict(iv)) ++conflicts_;
  if (!is_basic(iv) && beta_[static_cast<std::size_t>(iv)] > v) {
    update_nonbasic(iv, v);
  }
}

void Solver::set_lower(Var v, long long lb) {
  if (v < 0 || v >= num_vars()) {
    throw std::out_of_range("Solver::set_lower: unknown variable id");
  }
  assert_lower(internal(v), Rational(lb));
}

void Solver::set_upper(Var v, long long ub) {
  if (v < 0 || v >= num_vars()) {
    throw std::out_of_range("Solver::set_upper: unknown variable id");
  }
  assert_upper(internal(v), Rational(ub));
}

// ---------------------------------------------------------------------------
// Constraints
// ---------------------------------------------------------------------------

void Solver::add(Constraint c) {
  for (const auto& [v, coeff] : c.expr.coeffs()) {
    if (v < 0 || v >= num_vars()) {
      throw std::out_of_range("Solver::add: unknown variable id");
    }
    (void)coeff;
  }
  if (c.expr.is_constant()) {
    const Rational& k = c.expr.constant();
    bool ok = (c.rel == Rel::kLe && !k.is_positive()) ||
              (c.rel == Rel::kGe && !k.is_negative()) ||
              (c.rel == Rel::kEq && k.is_zero());
    if (!ok) ++const_unsat_;
    crow_.push_back(-1);
    constraints_.push_back(std::move(c));
    return;
  }

  // Slack row: s = expr - const; the bound derives from the relation.
  Rational rhs = -c.expr.constant();  // s REL rhs
  std::optional<Rational> slb, sub;
  switch (c.rel) {
    case Rel::kLe:
      sub = rhs;
      break;
    case Rel::kGe:
      slb = rhs;
      break;
    case Rel::kEq:
      slb = rhs;
      sub = rhs;
      break;
  }
  int s = alloc_internal(std::move(slb), std::move(sub));
  SparseRow row;
  row.reserve(c.expr.coeffs().size());
  Rational val(0);
  // expr.coeffs() is ordered by external id and ext2int_ is monotone, so the
  // internal ids come out ascending and push_back keeps the row sorted.
  for (const auto& [v, coeff] : c.expr.coeffs()) {
    int iv = internal(v);
    val += coeff * beta_[static_cast<std::size_t>(iv)];
    row.push_back(iv, coeff);
  }
  // Rows must be expressed over nonbasic variables, but on a warm tableau
  // the constraint may mention variables pivoted into the basis by earlier
  // checks: substitute each one by its defining row. Every substitution
  // removes one basic variable and introduces only nonbasics, so this
  // terminates after at most |row| rounds.
  for (;;) {
    int bas = -1;
    Rational bc;
    for (const auto& [v, coeff] : row) {
      if (is_basic(v)) {
        bas = v;
        bc = coeff;
        break;
      }
    }
    if (bas < 0) break;
    row.add_multiple(bc, rows_[static_cast<std::size_t>(row_of_[
                             static_cast<std::size_t>(bas)])],
                     bas, &scratch_);
  }
  beta_[static_cast<std::size_t>(s)] = std::move(val);
  row_of_[static_cast<std::size_t>(s)] = static_cast<int>(rows_.size());
  basic_var_.push_back(s);
  index_row_vars(static_cast<int>(rows_.size()), row);
  rows_.push_back(std::move(row));
  row_sweep_.push_back(0);
  crow_.push_back(s);
  constraints_.push_back(std::move(c));
  owner_[static_cast<std::size_t>(s)] =
      static_cast<int>(constraints_.size()) - 1;
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

Solver::Checkpoint Solver::push() {
  obs::add(obs::Counter::kSolverScopes);
  Checkpoint cp{static_cast<int>(scopes_.size())};
  scopes_.push_back({trail_.size(), constraints_.size(),
                     static_cast<int>(beta_.size()), num_vars(),
                     const_unsat_});
  return cp;
}

void Solver::pop() {
  if (scopes_.empty()) throw std::logic_error("Solver::pop: no open scope");
  pop_to(Checkpoint{static_cast<int>(scopes_.size()) - 1});
}

void Solver::pop_to(Checkpoint cp) {
  if (cp.depth < 0 || cp.depth >= static_cast<int>(scopes_.size())) {
    throw std::logic_error("Solver::pop_to: invalid checkpoint");
  }
  const Scope scope = scopes_[static_cast<std::size_t>(cp.depth)];
  scopes_.resize(static_cast<std::size_t>(cp.depth));

  // 1. Undo bound tightenings, repairing nonbasic assignments as restored
  //    bounds widen (a conflicted assert may have parked beta outside the
  //    surviving bound).
  while (trail_.size() > scope.trail) {
    BoundChange bc = std::move(trail_.back());
    trail_.pop_back();
    bool was_conflict = bound_conflict(bc.iv);
    if (bc.upper) {
      ub_[static_cast<std::size_t>(bc.iv)] = std::move(bc.old);
    } else {
      lb_[static_cast<std::size_t>(bc.iv)] = std::move(bc.old);
    }
    if (was_conflict && !bound_conflict(bc.iv)) --conflicts_;
    if (!bound_conflict(bc.iv) && !is_basic(bc.iv)) {
      if (below_lb(bc.iv)) {
        update_nonbasic(bc.iv, *lb_[static_cast<std::size_t>(bc.iv)]);
      } else if (above_ub(bc.iv)) {
        update_nonbasic(bc.iv, *ub_[static_cast<std::size_t>(bc.iv)]);
      }
    }
  }

  // 2. Remove the rows of constraints added in the popped scopes, newest
  //    first. Eliminating the row's slack from the basis first keeps the
  //    remaining system equivalent to the remaining constraints.
  while (constraints_.size() > scope.ncons) {
    int s = crow_.back();
    crow_.pop_back();
    constraints_.pop_back();
    if (s >= 0) remove_constraint_row(s);
  }
  const_unsat_ = scope.const_unsat;

  // 3. Drop variables registered in the popped scopes. Every removed slack
  //    was just eliminated from the basis and the kept rows cannot mention
  //    scope-local structural variables (they are linear combinations of
  //    the surviving constraints, which predate those variables), so plain
  //    truncation is sound. Conflicts contributed by removed vars vanish
  //    with them.
  for (int iv = scope.n_internal; iv < static_cast<int>(beta_.size()); ++iv) {
    if (bound_conflict(iv)) --conflicts_;
  }
  lb_.resize(static_cast<std::size_t>(scope.n_internal));
  ub_.resize(static_cast<std::size_t>(scope.n_internal));
  beta_.resize(static_cast<std::size_t>(scope.n_internal));
  row_of_.resize(static_cast<std::size_t>(scope.n_internal));
  cols_.resize(static_cast<std::size_t>(scope.n_internal));
  owner_.resize(static_cast<std::size_t>(scope.n_internal));
  ext2int_.resize(static_cast<std::size_t>(scope.n_external));
}

void Solver::remove_constraint_row(int s) {
  if (!is_basic(s)) {
    // Pure pivot s back into the basis via the lowest-indexed row that
    // mentions it (the choice the old full scan made, kept so pivot counts
    // are unchanged by the column index). Such a row must exist: the row
    // system is equivalent to the constraint system, which constrains s.
    int r = -1;
    for_each_row_with(s, [&](int k, const Rational& coeff) {
      (void)coeff;
      if (r < 0 || k < r) r = k;
    });
    if (r < 0) {
      throw std::logic_error("Solver::pop: slack vanished from the tableau");
    }
    int kicked = basic_var_[static_cast<std::size_t>(r)];
    pivot_rows(r, s);
    // The kicked-out variable keeps its assignment, which may sit outside
    // its bounds; nonbasic variables must be repaired back inside.
    if (!bound_conflict(kicked)) {
      if (below_lb(kicked)) {
        update_nonbasic(kicked, *lb_[static_cast<std::size_t>(kicked)]);
      } else if (above_ub(kicked)) {
        update_nonbasic(kicked, *ub_[static_cast<std::size_t>(kicked)]);
      }
    }
  }
  int r = row_of_[static_cast<std::size_t>(s)];
  row_of_[static_cast<std::size_t>(s)] = -1;
  int last = static_cast<int>(rows_.size()) - 1;
  if (r != last) {
    rows_[static_cast<std::size_t>(r)] =
        std::move(rows_[static_cast<std::size_t>(last)]);
    basic_var_[static_cast<std::size_t>(r)] =
        basic_var_[static_cast<std::size_t>(last)];
    row_of_[static_cast<std::size_t>(
        basic_var_[static_cast<std::size_t>(r)])] = r;
    // The moved row now lives at index r; its old entries under `last`
    // become stale and are dropped lazily.
    index_row_vars(r, rows_[static_cast<std::size_t>(r)]);
  }
  rows_.pop_back();
  basic_var_.pop_back();
  row_sweep_.pop_back();
}

// ---------------------------------------------------------------------------
// Simplex core
// ---------------------------------------------------------------------------

void Solver::push_violated(int iv) {
  if (!is_basic(iv)) return;
  if (!below_lb(iv) && !above_ub(iv)) return;
  heap_.push_back(iv);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

// Called only between solve() calls (bound asserts, pop-time repairs), so
// it does not need to maintain the solve-local violated-basic heap.
void Solver::update_nonbasic(int iv, const Rational& val) {
  Rational delta = val - beta_[static_cast<std::size_t>(iv)];
  if (delta.is_zero()) return;
  for_each_row_with(iv, [&](int r, const Rational& coeff) {
    beta_[static_cast<std::size_t>(
        basic_var_[static_cast<std::size_t>(r)])] += coeff * delta;
  });
  beta_[static_cast<std::size_t>(iv)] = val;
}

void Solver::pivot_and_update(int xb, int xn, const Rational& target) {
  int r = row_of_[static_cast<std::size_t>(xb)];
  Rational a = rows_[static_cast<std::size_t>(r)].coeff(xn);
  Rational theta = (target - beta_[static_cast<std::size_t>(xb)]) / a;

  beta_[static_cast<std::size_t>(xb)] = target;
  beta_[static_cast<std::size_t>(xn)] += theta;
  for_each_row_with(xn, [&](int k, const Rational& coeff) {
    if (k == r) return;
    int b = basic_var_[static_cast<std::size_t>(k)];
    beta_[static_cast<std::size_t>(b)] += coeff * theta;
    push_violated(b);
  });
  pivot_rows(r, xn);
}

void Solver::pivot_rows(int r, int xn) {
  SparseRow& pivot_row = rows_[static_cast<std::size_t>(r)];
  int xb = basic_var_[static_cast<std::size_t>(r)];
  Rational a = pivot_row.coeff(xn);

  // Rewrite row r to express xn:  xn = (xb - sum_{j != n} c_j x_j) / a.
  Rational inv_a = Rational(1) / a;
  SparseRow new_row;
  new_row.reserve(pivot_row.size());
  for (const auto& [v, c] : pivot_row) {
    if (v == xn) continue;
    new_row.push_back(v, -(c * inv_a));
  }
  new_row.add(xb, inv_a);
  pivot_row = std::move(new_row);
  basic_var_[static_cast<std::size_t>(r)] = xn;
  row_of_[static_cast<std::size_t>(xn)] = r;
  row_of_[static_cast<std::size_t>(xb)] = -1;
  cols_[static_cast<std::size_t>(xb)].push_back(r);  // new pivot-row entry

  // Substitute xn out of every other row, indexing row k under exactly the
  // variables the merge introduced (the rewritten pivot row no longer
  // contains xn, so these pushes never disturb the sweep's compaction of
  // cols_[xn]).
  for_each_row_with(xn, [&](int k, const Rational& coeff) {
    if (k == r) return;
    scratch_vars_.clear();
    rows_[static_cast<std::size_t>(k)].add_multiple(coeff, pivot_row, xn,
                                                    &scratch_, &scratch_vars_);
    for (Var v : scratch_vars_) {
      cols_[static_cast<std::size_t>(v)].push_back(k);
    }
  });
}

Result Solver::solve() {
  // Seed the violated-basic cache; pivots keep it current from here on.
  heap_.clear();
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    push_violated(basic_var_[r]);
  }
  for (;;) {
    // Bland's rule: smallest violated basic variable (lazily validated;
    // every violated basic var is in the heap, so the first valid entry is
    // the true minimum).
    int xb = -1;
    bool low = false;
    while (!heap_.empty()) {
      int v = heap_.front();
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      heap_.pop_back();
      if (!is_basic(v)) continue;
      if (below_lb(v)) {
        xb = v;
        low = true;
        break;
      }
      if (above_ub(v)) {
        xb = v;
        low = false;
        break;
      }
    }
    if (xb == -1) return Result::kSat;
    if (stat_pivots_ >= kMaxPivots) return Result::kUnknown;
    if ((stat_pivots_ & 255) == 0) {
      util::fault_point("lia.pivot");
      if (options_.cancel != nullptr && options_.cancel->cancelled()) {
        return Result::kUnknown;
      }
    }

    int r = row_of_[static_cast<std::size_t>(xb)];
    const SparseRow& row = rows_[static_cast<std::size_t>(r)];
    // Smallest suitable nonbasic variable: entries are sorted by id, so the
    // first suitable one wins.
    int xn = -1;
    for (const auto& [v, c] : row) {
      bool ok;
      if (low) {
        // Need to increase xb.
        ok = (c.is_positive() && !above_at_ub(v)) ||
             (c.is_negative() && !below_at_lb(v));
      } else {
        // Need to decrease xb.
        ok = (c.is_negative() && !above_at_ub(v)) ||
             (c.is_positive() && !below_at_lb(v));
      }
      if (ok) {
        xn = v;
        break;
      }
    }
    if (xn == -1) {
      // Conflict: xb's row with every nonbasic pinned at a blocking bound.
      // The tableau row is the combination of exactly the constraint rows
      // whose slacks appear in it (each slack occurs in one original row
      // only), so folding the row's variables — and their owning
      // constraints — into the core maxima summarizes this leaf of the
      // refutation; see the core comments in solver.h.
      auto fold = [&](int iv) {
        core_max_var_ = std::max(core_max_var_, iv);
        core_max_cons_ =
            std::max(core_max_cons_, owner_[static_cast<std::size_t>(iv)]);
      };
      fold(xb);
      for (const auto& [v, c] : row) {
        (void)c;
        fold(v);
      }
      return Result::kUnsat;
    }

    ++stat_pivots_;
    ++total_pivots_;
    const auto& bound = low ? lb_[static_cast<std::size_t>(xb)]
                            : ub_[static_cast<std::size_t>(xb)];
    pivot_and_update(xb, xn, *bound);
    push_violated(xn);  // the entering var may still sit outside a bound
  }
}

// ---------------------------------------------------------------------------
// check(): scoped branch & bound over the persistent tableau
// ---------------------------------------------------------------------------

Result Solver::do_check(bool relaxed) {
  stat_pivots_ = 0;
  stat_nodes_ = 0;
  model_.clear();
  core_valid_ = false;
  core_max_cons_ = -1;
  core_max_var_ = -1;
  if (const_unsat_ > 0) {
    // The first violated constant constraint alone refutes the system.
    for (std::size_t i = 0; i < constraints_.size(); ++i) {
      if (crow_[i] != -1) continue;
      const Constraint& c = constraints_[i];
      const Rational& k = c.expr.constant();
      bool ok = (c.rel == Rel::kLe && !k.is_positive()) ||
                (c.rel == Rel::kGe && !k.is_negative()) ||
                (c.rel == Rel::kEq && k.is_zero());
      if (!ok) {
        core_max_cons_ = static_cast<int>(i);
        break;
      }
    }
    core_valid_ = true;
    return Result::kUnsat;
  }

  const Checkpoint outer = push();
  // Default window: every externally-unbounded variable is clamped so
  // branch & bound terminates. Asserted in the outer scope, so the window
  // never leaks into the persistent state.
  for (Var v = 0; v < num_vars(); ++v) {
    int iv = internal(v);
    if (!lb_[static_cast<std::size_t>(iv)]) {
      assert_lower(iv, Rational(options_.default_lo));
    }
    if (!ub_[static_cast<std::size_t>(iv)]) {
      assert_upper(iv, Rational(options_.default_hi));
    }
  }

  Result res = Result::kUnsat;
  // Whether every leaf of the refutation was folded into the core maxima.
  // A root-level lb>ub pair predates the check and is not attributed;
  // deeper bound conflicts come from branch asserts, whose variables are
  // folded below, so those leaves stay tracked.
  bool tracked = true;
  std::vector<PendingBranch> pending;
  for (;;) {
    if (stat_nodes_ >= kMaxNodes) {
      res = Result::kUnknown;
      break;
    }
    if (options_.cancel != nullptr && options_.cancel->cancelled()) {
      res = Result::kUnknown;
      break;
    }
    ++stat_nodes_;

    Result r = conflicts_ > 0 ? Result::kUnsat : solve();
    if (r == Result::kUnsat && conflicts_ > 0 && stat_nodes_ == 1) {
      tracked = false;
    }
    if (r == Result::kUnknown) {
      res = Result::kUnknown;
      break;
    }
    if (r == Result::kSat) {
      if (relaxed) {
        res = Result::kSat;  // no model kept: may be fractional
        break;
      }
      // Find a fractional variable to branch on.
      Var frac = -1;
      for (Var v = 0; v < num_vars(); ++v) {
        if (!beta_[static_cast<std::size_t>(internal(v))].is_integer()) {
          frac = v;
          break;
        }
      }
      if (frac == -1) {
        model_.resize(static_cast<std::size_t>(num_vars()));
        for (Var v = 0; v < num_vars(); ++v) {
          model_[static_cast<std::size_t>(v)] =
              beta_[static_cast<std::size_t>(internal(v))].num();
        }
        res = Result::kSat;
        break;
      }
      int iv = internal(frac);
      // Branch splits case-split integer points exhaustively, so a split
      // variable is part of any refutation assembled below it.
      core_max_var_ = std::max(core_max_var_, iv);
      Int128 fl = beta_[static_cast<std::size_t>(iv)].floor();
      // Explore the "down" branch first: counterexamples with small values
      // make for readable reports. The "up" sibling waits on the stack with
      // the checkpoint that restores its parent.
      Checkpoint cp = push();
      pending.push_back({cp, frac, fl + 1});
      assert_upper(iv, Rational(fl, 1));
      continue;
    }
    // UNSAT: backtrack to the deepest unexplored "up" branch.
    if (pending.empty()) {
      res = Result::kUnsat;
      break;
    }
    PendingBranch p = pending.back();
    pending.pop_back();
    pop_to(p.cp);
    push();
    assert_lower(internal(p.v), Rational(p.lb, 1));
  }

  pop_to(outer);
  core_valid_ = res == Result::kUnsat && tracked;
  return res;
}

Result Solver::do_check_counted(bool relaxed) {
  if (!obs::enabled()) return do_check(relaxed);
  const std::int64_t t0 = obs::now_ns();
  Result res = do_check(relaxed);
  obs::add(obs::Counter::kSolverChecks);
  obs::add(obs::Counter::kSolverPivots,
           static_cast<std::uint64_t>(stat_pivots_));
  obs::add(obs::Counter::kSolverBBNodes,
           static_cast<std::uint64_t>(stat_nodes_));
  obs::add(obs::Counter::kSolverMicros,
           static_cast<std::uint64_t>((obs::now_ns() - t0) / 1000));
  obs::observe(obs::Histogram::kCheckPivots,
               static_cast<std::uint64_t>(stat_pivots_));
  return res;
}

Result Solver::check() { return do_check_counted(false); }

Result Solver::check_relaxed() { return do_check_counted(true); }

// ---------------------------------------------------------------------------
// Models, minimization, entailment
// ---------------------------------------------------------------------------

Int128 Solver::model(Var v) const {
  if (model_.empty()) throw std::logic_error("Solver::model: no model");
  return model_[static_cast<std::size_t>(v)];
}

Int128 Solver::model_eval(const LinExpr& e) const {
  Rational acc = e.eval([&](Var v) { return Rational(model(v), 1); });
  assert(acc.is_integer());
  return acc.num();
}

Result Solver::minimize(const LinExpr& objective) {
  Result first = check();
  if (first != Result::kSat) return first;

  std::vector<Int128> best_model = model_;
  Int128 hi = model_eval(objective);
  // Lower limit: the default window keeps the objective finite.
  Int128 lo = util::Int128(options_.default_lo) *
              static_cast<Int128>(1 + objective.coeffs().size());
  while (lo < hi) {
    Int128 mid = lo + (hi - lo) / 2;  // floor for lo <= mid < hi
    Checkpoint cp = push();
    LinExpr bound = objective;
    bound.add_const(Rational(-mid, 1));
    add(Constraint::le0(bound));  // objective <= mid
    Result r = check();
    if (r == Result::kSat) {
      best_model = model_;
      hi = model_eval(objective);
      pop_to(cp);
    } else {
      pop_to(cp);
      if (r == Result::kUnsat) {
        lo = mid + 1;
      } else {
        break;  // budget exhausted: keep the best model found so far
      }
    }
  }
  model_ = std::move(best_model);
  return Result::kSat;
}

Entailment entails(const Solver& base, const Constraint& c) {
  auto probe_unsat = [&](const Constraint& neg) -> Entailment {
    Solver probe = base;
    probe.add(neg);
    switch (probe.check()) {
      case Result::kUnsat:
        return Entailment::kYes;
      case Result::kSat:
        return Entailment::kNo;
      case Result::kUnknown:
        return Entailment::kUnknown;
    }
    return Entailment::kUnknown;
  };

  if (c.rel == Rel::kEq) {
    // not(e == 0) is e <= -1 or e >= 1: entailed iff both branches unsat.
    Constraint low = Constraint::le0(c.expr + LinExpr(Rational(1)));
    Constraint high = Constraint::ge0(c.expr - LinExpr(Rational(1)));
    Entailment a = probe_unsat(low);
    if (a != Entailment::kYes) return a;
    return probe_unsat(high);
  }
  return probe_unsat(c.negate_int());
}

}  // namespace ctaver::lia
