// Linear integer arithmetic (LIA) feasibility solver.
//
// This is the decision procedure backing the schema checker (src/schema) —
// the role Z3 plays for ByMC. It decides satisfiability of conjunctions of
// linear constraints over integer variables:
//
//   * rational relaxation via the general simplex of de Moura & Bjørner
//     ("A Fast Linear-Arithmetic Solver for DPLL(T)", CAV'06), with Bland's
//     rule for termination and exact rational pivoting;
//   * integrality via depth-first branch & bound on fractional variables.
//
// The solver is *incremental*: the sparse simplex tableau persists across
// check() calls, and push()/pop() scopes undo constraint rows, bound
// tightenings, and variable registrations via a backtrackable trail. The
// simplex assignment is repaired on pop (nonbasic variables are clamped
// back into their restored bounds), never rebuilt, so a re-check after a
// pop starts from a warm, usually-feasible basis. Branch & bound itself
// runs on scopes of the same trail, which is where most of the pivot-count
// reduction over the old rebuild-per-node design comes from.
//
// Completeness caveat: branch & bound does not terminate on feasible
// unbounded relaxations with no integer points. To guarantee termination the
// solver clamps every variable into [default_lo, default_hi] unless the
// caller supplied explicit bounds. Threshold-automata queries enjoy a
// small-model property (counters and parameters of real counterexamples are
// tiny), so the default window of [-10^9, 10^9] loses nothing in practice;
// callers that care can widen it via SolverOptions.
#pragma once

#include <optional>
#include <vector>

#include "lia/linexpr.h"
#include "lia/sparse_row.h"
#include "util/cancel.h"
#include "util/rational.h"

namespace ctaver::lia {

/// Outcome of a feasibility check.
enum class Result { kSat, kUnsat, kUnknown };

/// Tuning knobs for the solver.
struct SolverOptions {
  /// Default variable window applied when no explicit bounds were given.
  long long default_lo = -1'000'000'000LL;
  long long default_hi = 1'000'000'000LL;
  /// Optional cooperative-cancellation source (not owned), polled every 256
  /// pivots and at every branch-and-bound node. A tripped source makes the
  /// in-flight check() return kUnknown, which is how the schema checker
  /// bounds --time-budget overshoot (and sibling-cancellation latency) to a
  /// few hundred pivots per worker instead of one full query. Determinism:
  /// a source that never trips never changes any result.
  const util::CancelSource* cancel = nullptr;
};

/// Conjunction-of-constraints LIA solver with push()/pop() scopes.
/// Copyable, so callers can still fork a base system.
class Solver {
 public:
  explicit Solver(SolverOptions options = {}) : options_(options) {}

  /// Creates an integer variable. Optional bounds; pass nullopt for open
  /// sides. Returns its id (dense, starting at 0).
  Var new_var(std::optional<long long> lb = std::nullopt,
              std::optional<long long> ub = std::nullopt);

  /// Number of variables created so far (and not undone by pop()).
  [[nodiscard]] int num_vars() const {
    return static_cast<int>(ext2int_.size());
  }

  /// Tightens bounds on an existing variable (looser values are ignored).
  /// Inside a scope the tightening is undone by the matching pop().
  void set_lower(Var v, long long lb);
  void set_upper(Var v, long long ub);

  /// Adds a constraint (expr REL 0) to the conjunction. The tableau row is
  /// materialized eagerly; inside a scope it is removed by the matching
  /// pop().
  void add(Constraint c);
  [[nodiscard]] const std::vector<Constraint>& constraints() const {
    return constraints_;
  }

  // --- scopes --------------------------------------------------------------

  /// Marks the current solver state. Everything done after the push() —
  /// variables, constraints, bound tightenings — is undone by the matching
  /// pop(). Scopes nest; Checkpoints allow popping several at once.
  struct Checkpoint {
    int depth = 0;  // index of the scope opened by the push() that made it
  };
  Checkpoint push();
  /// Undoes the innermost scope. Throws std::logic_error without one.
  void pop();
  /// Pops scopes until the state at `cp`'s push() is restored (inclusive:
  /// the scope opened by that push() is undone too).
  void pop_to(Checkpoint cp);
  /// Number of open scopes.
  [[nodiscard]] int depth() const { return static_cast<int>(scopes_.size()); }

  // --- solving -------------------------------------------------------------

  /// Decides the conjunction. kUnknown only on cancellation or on the
  /// solver's fixed per-check caps (2M simplex pivots, 200k branch-and-bound
  /// nodes). Leaves the scope stack as it found it; the tableau stays warm
  /// for the next check after further add()/push()/pop() calls.
  Result check();
  /// Decides only the rational relaxation: kUnsat is an integer proof, kSat
  /// may be spurious over the integers (no model is exposed). Used for
  /// prune-only probes, where UNSAT is the actionable answer.
  Result check_relaxed();

  /// Model access; valid after check() returned kSat.
  [[nodiscard]] util::Int128 model(Var v) const;
  /// Evaluates an expression under the model.
  [[nodiscard]] util::Int128 model_eval(const LinExpr& e) const;

  /// Minimizes `objective` over the feasible set by binary search on its
  /// value; on kSat the model attains the minimum found. Intended to shrink
  /// counterexample parameters for readable reports. Runs in scopes on this
  /// solver, so the constraint system is unchanged afterwards.
  Result minimize(const LinExpr& objective);

  // --- conflict cores ------------------------------------------------------
  //
  // UNSAT-core-lite: instead of a constraint set, the solver exports a
  // *prefix bound* on the refutation. After a kUnsat whose proof tree was
  // fully tracked (conflict_core_valid()), every simplex conflict row, every
  // constraint whose slack appears in one, and every branch-and-bound split
  // variable lies within the first core_max_constraint()+1 constraints and
  // the first core_max_var()+1 internal variables. Soundness: a conflict
  // row is the combination of exactly the constraint rows whose slacks
  // appear in it, so the conjunction of that constraint prefix plus the
  // bounds of that variable prefix is already integer-infeasible (the B&B
  // splits, all on tracked variables, case-split integer points
  // exhaustively) — any system containing an isomorphic copy of those
  // prefixes is UNSAT without solving. The schema checker compares the
  // maxima against its emission-divergence markers to skip sibling witness
  // placements.

  /// True iff the last check()'s kUnsat refutation was fully tracked
  /// (pre-existing lb>ub bound conflicts are the untracked case). Only
  /// meaningful after a check that returned kUnsat.
  [[nodiscard]] bool conflict_core_valid() const { return core_valid_; }
  /// Largest constraint index participating in the refutation, -1 if none.
  [[nodiscard]] int core_max_constraint() const { return core_max_cons_; }
  /// Largest internal variable id participating, -1 if none. Compare
  /// against internal_size() snapshots taken while asserting.
  [[nodiscard]] int core_max_var() const { return core_max_var_; }
  /// Number of internal (structural + slack) variables currently live —
  /// the marker companion to core_max_var().
  [[nodiscard]] int internal_size() const {
    return static_cast<int>(beta_.size());
  }

  /// Pivots across every check() on this solver (never reset): what the
  /// schema checker reports as CheckResult::npivots.
  [[nodiscard]] long long total_pivots() const { return total_pivots_; }

 private:
  struct BoundChange {
    int iv;  // internal id
    bool upper;
    std::optional<util::Rational> old;
  };
  struct Scope {
    std::size_t trail = 0;    // trail_ size at push
    std::size_t ncons = 0;    // constraints_ size at push
    int n_internal = 0;       // internal var count at push
    int n_external = 0;       // external var count at push
    int const_unsat = 0;      // violated constant constraints at push
  };
  struct PendingBranch {
    Checkpoint cp;  // parent state to restore before the "up" sibling
    Var v;          // external branch variable
    util::Int128 lb;
  };

  [[nodiscard]] int internal(Var v) const {
    return ext2int_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] bool is_basic(int iv) const {
    return row_of_[static_cast<std::size_t>(iv)] >= 0;
  }
  [[nodiscard]] bool below_lb(int iv) const;
  [[nodiscard]] bool above_ub(int iv) const;
  /// Nonbasic v sits at (or beyond) its upper bound: cannot increase.
  [[nodiscard]] bool above_at_ub(int iv) const;
  /// Nonbasic v sits at (or beyond) its lower bound: cannot decrease.
  [[nodiscard]] bool below_at_lb(int iv) const;
  [[nodiscard]] bool bound_conflict(int iv) const;

  int alloc_internal(std::optional<util::Rational> lb,
                     std::optional<util::Rational> ub);
  void assert_lower(int iv, const util::Rational& v);
  void assert_upper(int iv, const util::Rational& v);
  void update_nonbasic(int iv, const util::Rational& val);
  void pivot_and_update(int xb, int xn, const util::Rational& target);
  /// Basis change only (no assignment update): rewrites row `r` to express
  /// `xn` and substitutes it out of every other row. Used for row removal.
  void pivot_rows(int r, int xn);
  void remove_constraint_row(int slack);
  void push_violated(int iv);
  Result solve();
  Result do_check(bool relaxed);
  /// do_check plus the obs registry bumps (checks/pivots/nodes/micros),
  /// aggregated once per check so the pivot loop itself stays untouched.
  Result do_check_counted(bool relaxed);

  SolverOptions options_;
  // External (caller-visible) variable -> internal id.
  std::vector<int> ext2int_;
  std::vector<Constraint> constraints_;
  std::vector<int> crow_;  // constraint -> internal slack id, -1 if constant
  std::vector<int> owner_;  // internal var -> owning constraint, -1 if none
  int const_unsat_ = 0;    // violated constant constraints currently active

  // Tableau over internal ids (structural + slack interleaved).
  std::vector<std::optional<util::Rational>> lb_, ub_;
  std::vector<util::Rational> beta_;
  std::vector<int> row_of_;       // internal var -> row index, or -1
  std::vector<int> basic_var_;    // row -> internal var
  std::vector<SparseRow> rows_;
  int conflicts_ = 0;             // vars with lb > ub

  // Column-wise occurrence lists: cols_[iv] holds the indices of rows that
  // (may) contain iv, so update_nonbasic and pivot beta-propagation touch
  // only populated rows instead of binary-searching every row. The lists
  // are supersets — rows are pushed eagerly whenever a merge can introduce
  // the variable and validated lazily: each sweep drops entries whose row
  // no longer contains the variable (or vanished) and deduplicates via a
  // per-row generation stamp. Invariant: every row currently containing iv
  // is listed in cols_[iv].
  std::vector<std::vector<int>> cols_;
  std::vector<unsigned> row_sweep_;  // row index -> last sweep stamp
  unsigned sweep_stamp_ = 0;

  /// Registers `r` as (possibly) containing every variable of `row`.
  void index_row_vars(int r, const SparseRow& row);
  /// Calls f(row_index, coeff) once per row currently containing `iv`,
  /// compacting cols_[iv] as a side effect.
  template <typename F>
  void for_each_row_with(int iv, F&& f);

  // Backtracking.
  std::vector<BoundChange> trail_;
  std::vector<Scope> scopes_;

  // Bland-rule pivot-selection cache: min-heap of candidate violated basic
  // variables (lazily validated), so each pivot selects the smallest
  // violated basic var in O(log h) instead of scanning every row. The heap
  // is solve-local: seeded by one row scan at the top of solve(), kept
  // current by the pivots, discarded afterwards.
  std::vector<int> heap_;
  std::vector<SparseRow::Entry> scratch_;  // merge buffer for row updates
  std::vector<Var> scratch_vars_;          // new-entry buffer for the index

  std::vector<util::Int128> model_;
  bool core_valid_ = false;  // see conflict_core_valid()
  int core_max_cons_ = -1;
  int core_max_var_ = -1;
  long long stat_pivots_ = 0;
  long long stat_nodes_ = 0;
  long long total_pivots_ = 0;
};

/// Tri-state entailment: does `base`'s constraint system entail `c` over the
/// integers? Implemented as unsatisfiability of base ∧ ¬c (splitting the
/// disequality when c is an equality). kUnknown is conservative: callers in
/// the verification pipeline must treat it as "not proved".
enum class Entailment { kYes, kNo, kUnknown };
Entailment entails(const Solver& base, const Constraint& c);

}  // namespace ctaver::lia
