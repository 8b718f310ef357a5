#include "schema/checker.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "lia/solver.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ctaver::schema {

namespace {

using lia::Constraint;
using lia::LinExpr;
using lia::Result;
using lia::Solver;
using util::Rational;

/// Big-M of the conditional falling-guard checks; exact under the
/// small-model caps kParamCap and kBatchCap (checker.h).
constexpr long long kBigM = 100'000'000;

/// Sentinel flip position for guards absent from the current order.
constexpr int kUnflipped = INT_MAX;

/// Canonical batch order: rules sorted by topological index of their source
/// location (per automaton; process rules first). Self-loops are dropped.
struct OrderedRule {
  bool coin;
  ta::RuleId rule;
};

std::vector<int> topo_order(const ta::Automaton& a) {
  const int n = static_cast<int>(a.locations.size());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  std::vector<int> indeg(static_cast<std::size_t>(n), 0);
  for (const ta::Rule& r : a.rules) {
    for (const auto& [to, p] : r.to.outcomes) {
      (void)p;
      if (to == r.from) continue;
      adj[static_cast<std::size_t>(r.from)].push_back(to);
      ++indeg[static_cast<std::size_t>(to)];
    }
  }
  std::vector<int> order(static_cast<std::size_t>(n), 0);
  std::vector<int> queue;
  for (int l = 0; l < n; ++l) {
    if (indeg[static_cast<std::size_t>(l)] == 0) queue.push_back(l);
  }
  int next = 0;
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    int l = queue[qi];
    order[static_cast<std::size_t>(l)] = next++;
    for (int m : adj[static_cast<std::size_t>(l)]) {
      if (--indeg[static_cast<std::size_t>(m)] == 0) queue.push_back(m);
    }
  }
  if (next != n) {
    throw std::invalid_argument(
        "schema checker: automaton is not a DAG modulo self-loops; apply "
        "ta::single_round first");
  }
  return order;
}

std::vector<OrderedRule> canonical_rule_order(const ta::System& sys) {
  std::vector<OrderedRule> out;
  for (bool coin : {false, true}) {
    const ta::Automaton& a = coin ? sys.coin : sys.process;
    std::vector<int> topo = topo_order(a);
    std::vector<OrderedRule> rules;
    for (ta::RuleId r = 0; r < static_cast<ta::RuleId>(a.rules.size()); ++r) {
      const ta::Rule& rule = a.rules[static_cast<std::size_t>(r)];
      if (rule.is_dirac() && rule.to.dirac_target() == rule.from &&
          rule.has_zero_update()) {
        continue;  // self-loop: configuration no-op
      }
      if (!rule.is_dirac()) {
        throw std::invalid_argument(
            "schema checker: probabilistic rule " + rule.name +
            "; apply ta::nonprobabilistic first");
      }
      rules.push_back({coin, r});
    }
    std::stable_sort(rules.begin(), rules.end(),
                     [&](const OrderedRule& x, const OrderedRule& y) {
                       return topo[static_cast<std::size_t>(
                                  a.rules[static_cast<std::size_t>(x.rule)]
                                      .from)] <
                              topo[static_cast<std::size_t>(
                                  a.rules[static_cast<std::size_t>(y.rule)]
                                      .from)];
                     });
    out.insert(out.end(), rules.begin(), rules.end());
  }
  return out;
}

/// Per-rule guard-index view aligned with canonical_rule_order.
struct RuleView {
  OrderedRule id;
  const ta::Rule* rule;
  std::vector<int> rising;
  std::vector<int> falling;
};

std::vector<RuleView> make_rule_views(const ta::System& sys,
                                      const GuardTable& table) {
  std::vector<OrderedRule> order = canonical_rule_order(sys);
  // Index the guard table by (coin, rule) so each view is an O(1) lookup
  // instead of a linear scan over every table entry.
  std::vector<int> index[2] = {
      std::vector<int>(sys.process.rules.size(), -1),
      std::vector<int>(sys.coin.rules.size(), -1)};
  for (std::size_t i = 0; i < table.rules.size(); ++i) {
    const RuleGuards& rg = table.rules[i];
    index[rg.coin ? 1 : 0][static_cast<std::size_t>(rg.rule)] =
        static_cast<int>(i);
  }
  std::vector<RuleView> out;
  out.reserve(order.size());
  for (const OrderedRule& orule : order) {
    const ta::Automaton& a = orule.coin ? sys.coin : sys.process;
    RuleView rv;
    rv.id = orule;
    rv.rule = &a.rules[static_cast<std::size_t>(orule.rule)];
    int i = index[orule.coin ? 1 : 0][static_cast<std::size_t>(orule.rule)];
    if (i >= 0) {
      rv.rising = table.rules[static_cast<std::size_t>(i)].rising;
      rv.falling = table.rules[static_cast<std::size_t>(i)].falling;
    }
    out.push_back(std::move(rv));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Encoder: builds and solves the LIA queries of one enumeration worker.
//
// Two modes share the same emission machinery:
//
//  * solve_fresh() rebuilds the whole model in a fresh solver per query —
//    the pre-incremental behavior, kept for counterexample extraction
//    (reports stay deterministic and independent of warm-solver state) and
//    as the reference encoder (CheckOptions::incremental = false).
//
//  * probe()/query_sat() keep ONE long-lived solver per worker. The
//    obligation-invariant prelude (parameters, resilience, initial
//    counters) is asserted once at scope depth 0. Each milestone-order
//    prefix level is asserted once in its own solver scope and shared by
//    every query on that prefix and by all of its descendants on the BFS
//    frontier: the prefix-feasibility probe then only pays for the newly
//    added segment, and a spec query only re-encodes the segments from its
//    first cut onward (the scopes above the divergence point are popped
//    first, so the query's constraint system is exactly the fresh one).
// ---------------------------------------------------------------------------
class Encoder {
 public:
  /// `cancel` (not owned, may be null) is polled inside every solver call;
  /// a tripped source turns the in-flight query kUnknown, bounding budget
  /// overshoot and sibling-cancellation latency to a few hundred pivots.
  Encoder(const ta::System& sys, const GuardTable& table,
          const std::vector<RuleView>& rules, const CheckOptions& opts,
          const util::CancelSource* cancel = nullptr)
      : sys_(&sys),
        table_(&table),
        rules_(&rules),
        n_proc_(static_cast<int>(sys.process.locations.size())),
        n_coin_(static_cast<int>(sys.coin.locations.size())),
        flip_pos_(table.guards.size(), kUnflipped) {
    solver_opts_.cancel = cancel;
    if (opts.incremental) {
      inc_.solver = Solver(solver_opts_);
      assert_prelude(inc_);
    }
  }

  /// Prefix-feasibility probe over the incremental solver: SAT of the
  /// rational relaxation of "some schedule realizes this milestone order".
  /// On UNSAT, `siblings_unsat` (when non-null) is set if the conflict core
  /// provably avoids the final milestone constraint — the only constraint
  /// a same-parent sibling order does not share (the parent scopes are
  /// literally the same solver state, and the last segment's batch emission
  /// depends only on the set of flipped guards, which siblings agree on up
  /// to the final position) — so every remaining sibling is UNSAT too.
  bool probe(const std::vector<int>& flips, bool* unknown,
             bool* siblings_unsat = nullptr) {
    util::fault_point("schema.encode");
    obs::Span span("query");
    if (span.active()) span.args("\"kind\":\"probe\"");
    obs::add(obs::Counter::kSchemaQueries);
    set_flips(flips);
    sync_levels(flips, flips.size());
    ++nqueries_;
    Result res = inc_.solver.check_relaxed();
    if (res == Result::kUnknown) {
      *unknown = true;
      return false;
    }
    if (res == Result::kUnsat && siblings_unsat != nullptr &&
        !levels_.empty() && inc_.solver.conflict_core_valid()) {
      *siblings_unsat =
          inc_.solver.core_max_constraint() < levels_.back().marker_cons &&
          inc_.solver.core_max_var() < levels_.back().marker_var;
    }
    return res == Result::kSat;
  }

  /// SAT of one (prefix, cut placement) spec query over the incremental
  /// solver. Counterexamples are extracted separately via solve_fresh so
  /// the reported model never depends on warm-solver state.
  ///
  /// On UNSAT, `later_cuts_unsat` (when non-null; pass only for two-cut
  /// shapes with swap_cuts=false) is set if the conflict core lies entirely
  /// before the conclusion witness's emission point. Every placement
  /// (cut1, cut2' > cut2) emits the identical constraint sequence up to
  /// that point — segments below cut2 (premise cut included) are unchanged
  /// and the conclusion witness plus its re-emission pass simply move later
  /// — so the core embeds verbatim and those placements are UNSAT without
  /// solving. This is the non-degenerate face of UNSAT-core skipping: a
  /// probe core must involve its final milestone (the milestone is the only
  /// lower-bound forcer — anything before it extends the parent's solution
  /// with empty batches), but a query core frequently stops at an
  /// infeasible premise placement, which kills the whole cut2 row.
  bool query_sat(const std::vector<int>& flips, int cut1, int cut2,
                 bool swap_cuts, const spec::Spec& spec, bool* unknown,
                 bool* later_cuts_unsat = nullptr) {
    util::fault_point("schema.encode");
    obs::Span span("query");
    if (span.active()) span.args("\"kind\":\"cut\"");
    obs::add(obs::Counter::kSchemaQueries);
    ++nqueries_;
    set_flips(flips);
    const int nseg = static_cast<int>(flips.size()) + 1;
    const bool two_cuts =
        spec.shape == spec::Shape::kEventuallyImpliesGlobally;
    // First segment whose emission differs from the plain prefix: keep the
    // shared levels below it, re-encode everything from there in one scope.
    int d = two_cuts ? std::min(cut1, cut2) : cut1;
    sync_levels(flips, static_cast<std::size_t>(d));
    const Mark before = mark(inc_);
    Solver::Checkpoint cp = inc_.solver.push();
    inc_.marker_cons = -1;
    inc_.marker_var = -1;
    if (spec.shape == spec::Shape::kInitialImpliesGlobally) {
      assert_initial_premise(inc_, spec);
    }
    for (int s = d; s < nseg; ++s) {
      emit_segment_with_cuts(inc_, s, cut1, cut2, swap_cuts, &spec, flips);
    }
    Result res = inc_.solver.check();
    if (res == Result::kUnsat && later_cuts_unsat != nullptr &&
        inc_.marker_cons >= 0 && inc_.solver.conflict_core_valid()) {
      *later_cuts_unsat =
          inc_.solver.core_max_constraint() < inc_.marker_cons &&
          inc_.solver.core_max_var() < inc_.marker_var;
    }
    inc_.solver.pop_to(cp);
    rewind(inc_, before);
    if (res == Result::kUnknown) {
      *unknown = true;
      return false;
    }
    return res == Result::kSat;
  }

  /// flips: guard indices in milestone order. cut1/cut2: segment indices of
  /// the witness points (cut2 = -1 for single-cut shapes; both -1 with a
  /// null spec for a prefix-feasibility probe). Returns a counterexample if
  /// the schema is satisfiable (always nullopt for probes — read *sat);
  /// sets *unknown on budget exhaustion. Builds a fresh solver per call.
  std::optional<Counterexample> solve_fresh(const std::vector<int>& flips,
                                            int cut1, int cut2,
                                            const spec::Spec* spec,
                                            bool* unknown,
                                            bool* sat = nullptr,
                                            bool swap_cuts = false) {
    util::fault_point("schema.encode");
    obs::Span span("query");
    if (span.active()) span.args("\"kind\":\"fresh\"");
    obs::add(obs::Counter::kSchemaQueries);
    ++nqueries_;
    Model m;
    m.solver = Solver(solver_opts_);
    assert_prelude(m);
    set_flips(flips);
    if (spec && spec->shape == spec::Shape::kInitialImpliesGlobally) {
      assert_initial_premise(m, *spec);
    }
    const int nseg = static_cast<int>(flips.size()) + 1;
    for (int s = 0; s < nseg; ++s) {
      emit_segment_with_cuts(m, s, cut1, cut2, swap_cuts, spec, flips);
    }

    // Prune-only probes act on UNSAT alone: the rational relaxation is
    // enough (and much cheaper than branch & bound).
    Result res = spec ? m.solver.check() : m.solver.check_relaxed();
    fresh_pivots_ += m.solver.total_pivots();
    if (sat) *sat = res == Result::kSat;
    if (res == Result::kUnknown) {
      *unknown = true;
      return std::nullopt;
    }
    if (res == Result::kUnsat || !spec) return std::nullopt;

    // Shrink parameters for a readable report.
    LinExpr obj;
    for (lia::Var v : m.pv) obj += LinExpr::term(v);
    long long before = m.solver.total_pivots();
    const Result min = m.solver.minimize(obj);
    fresh_pivots_ += m.solver.total_pivots() - before;
    // minimize() re-checks first; a cancel that trips in between leaves no
    // model. Same outcome as a cancelled warm query.
    if (min != Result::kSat) {
      *unknown = true;
      return std::nullopt;
    }

    Counterexample ce;
    ce.spec_name = spec->name;
    for (lia::Var v : m.pv) {
      ce.params.push_back(static_cast<long long>(m.solver.model(v)));
    }
    for (int gi : flips) {
      ce.milestones.push_back(
          table_->guards[static_cast<std::size_t>(gi)].str(*sys_));
    }
    // Structured schedule for the replay engine: the border occupancy the
    // model chose, then every positive batch in emission order.
    for (bool coin : {false, true}) {
      const ta::Automaton& a = coin ? sys_->coin : sys_->process;
      for (ta::LocId l = 0; l < static_cast<ta::LocId>(a.locations.size());
           ++l) {
        if (a.locations[static_cast<std::size_t>(l)].role !=
            ta::LocRole::kBorder) {
          continue;
        }
        const LinExpr& k0 = m.kappa0[static_cast<std::size_t>(gloc(coin, l))];
        long long occupancy = static_cast<long long>(m.solver.model_eval(k0));
        if (occupancy > 0) ce.init.push_back({coin, l, occupancy});
      }
    }
    std::ostringstream text;
    text << "params:";
    for (std::size_t i = 0; i < m.pv.size(); ++i) {
      text << " " << sys_->env.params[i].name << "="
           << util::int128_str(m.solver.model(m.pv[i]));
    }
    text << "; schedule:";
    for (const BatchVar& b : m.batches) {
      long long x = static_cast<long long>(m.solver.model(b.x));
      if (x > 0) {
        ce.batches.push_back({b.rv->id.coin, b.rv->id.rule, x, b.segment});
        text << " " << b.rv->rule->name << "^" << x << "@s" << b.segment;
      }
    }
    ce.text = text.str();
    return ce;
  }

  /// Simplex pivots spent by this encoder so far (fresh + incremental).
  [[nodiscard]] long long pivots() const {
    return fresh_pivots_ + inc_.solver.total_pivots();
  }

  /// LIA solver invocations made by this encoder (probes, spec queries,
  /// fresh counterexample re-solves). Core-skipped probes never reach here.
  [[nodiscard]] long long queries() const { return nqueries_; }

 private:
  struct BatchVar {
    lia::Var x;
    const RuleView* rv;
    int segment;
  };

  /// One edit of emit_part to the rolling emission state: batch variable
  /// `x` entered kappa[slot] or gval[slot] with coefficient `c`, or
  /// reachable[slot] turned on.
  struct Edit {
    enum class Kind : char { kKappa, kGval, kReach };
    Kind kind = Kind::kReach;
    int slot = -1;
    lia::Var x = -1;
    long long c = 0;
  };

  /// One constraint system under construction: the solver plus the rolling
  /// symbolic state of the emission (counter and shared-variable
  /// expressions, location reachability, recorded batches) and the trail
  /// of edits that rewinds that state, last in first out, as the solver's
  /// own trail rewinds the tableau.
  struct Model {
    Solver solver;
    std::vector<lia::Var> pv;       // parameter variables
    std::vector<LinExpr> kappa0;    // initial counters (shape-b premise)
    std::vector<LinExpr> kappa;     // current counters
    std::vector<LinExpr> gval;      // current shared-variable values
    std::vector<char> reachable;    // cumulative location reachability
    std::vector<BatchVar> batches;
    std::vector<Edit> trail;        // emit_part's edits since the prelude
    /// Constraint and internal-variable counts at the moment the conclusion
    /// witness of the query being emitted was asserted (-1 before that
    /// point): the emission-divergence markers the sibling-cut-placement
    /// skip in query_sat compares the conflict-core maxima against.
    int marker_cons = -1;
    int marker_var = -1;
  };

  /// Position of the emission state at a segment boundary: rewinding to it
  /// undoes every edit and batch emitted since, after the solver scopes have
  /// been popped back to that boundary.
  struct Mark {
    std::size_t trail = 0;
    std::size_t nbatches = 0;
  };

  /// One asserted milestone-order prefix element: the solver scope holding
  /// segment k's batches plus guard k's flip constraint, and the emission
  /// state to rewind to when the level is popped.
  struct Level {
    int guard = -1;
    /// Emission markers taken just before the flip constraint — the only
    /// constraint a same-parent sibling order does not share.
    int marker_cons = -1;
    int marker_var = -1;
    Solver::Checkpoint cp;
    Mark before;
  };

  [[nodiscard]] int gloc(bool coin, ta::LocId l) const {
    return coin ? n_proc_ + l : static_cast<int>(l);
  }

  [[nodiscard]] LinExpr pexpr(const Model& m, const ta::ParamExpr& e) const {
    LinExpr out{Rational(e.constant)};
    for (ta::ParamId p = 0; p < static_cast<ta::ParamId>(m.pv.size()); ++p) {
      if (e.coeff(p) != 0) {
        out.add_term(m.pv[static_cast<std::size_t>(p)], Rational(e.coeff(p)));
      }
    }
    return out;
  }

  [[nodiscard]] LinExpr lhs_expr(const Model& m, const ta::Guard& g) const {
    LinExpr out;
    for (const auto& [v, b] : g.lhs) {
      out.add_scaled(m.gval[static_cast<std::size_t>(v)], Rational(b));
    }
    return out;
  }

  /// O(guards-of-rule) allowance check against the current flip-position
  /// array (guard -> position in the active milestone order, kUnflipped if
  /// absent), replacing the old O(level) rescans of the flips vector.
  [[nodiscard]] bool allowed(const RuleView& rv, int level) const {
    for (int g : rv.rising) {
      if (flip_pos_[static_cast<std::size_t>(g)] >= level) return false;
    }
    for (int g : rv.falling) {
      if (flip_pos_[static_cast<std::size_t>(g)] < level) return false;
    }
    return true;
  }

  /// Points flip_pos_ at `flips` (clearing the previously active order).
  void set_flips(const std::vector<int>& flips) {
    if (flips == cur_flips_) return;
    for (int g : cur_flips_) {
      flip_pos_[static_cast<std::size_t>(g)] = kUnflipped;
    }
    for (std::size_t i = 0; i < flips.size(); ++i) {
      flip_pos_[static_cast<std::size_t>(flips[i])] = static_cast<int>(i);
    }
    cur_flips_ = flips;
  }

  /// Asserts the obligation-invariant prelude: parameters under the
  /// resilience condition, initial counters, zero shared variables.
  void assert_prelude(Model& m) {
    for (std::size_t i = 0; i < sys_->env.params.size(); ++i) {
      m.pv.push_back(m.solver.new_var(0, kParamCap));
    }
    for (const ta::ParamConstraint& rc : sys_->env.resilience) {
      LinExpr e = pexpr(m, rc.expr);
      switch (rc.op) {
        case ta::CmpOp::kGe:
          m.solver.add(Constraint::ge0(e));
          break;
        case ta::CmpOp::kGt:
          m.solver.add(Constraint::ge0(e - LinExpr(Rational(1))));
          break;
        case ta::CmpOp::kLe:
          m.solver.add(Constraint::le0(e));
          break;
        case ta::CmpOp::kLt:
          m.solver.add(Constraint::le0(e + LinExpr(Rational(1))));
          break;
        case ta::CmpOp::kEq:
          m.solver.add(Constraint::eq0(e));
          break;
      }
    }

    // Initial counters: borders hold all modeled processes/coins.
    m.kappa.assign(static_cast<std::size_t>(n_proc_ + n_coin_), LinExpr{});
    m.reachable.assign(static_cast<std::size_t>(n_proc_ + n_coin_), 0);
    for (bool coin : {false, true}) {
      const ta::Automaton& a = coin ? sys_->coin : sys_->process;
      LinExpr sum;
      bool any = false;
      for (ta::LocId l = 0; l < static_cast<ta::LocId>(a.locations.size());
           ++l) {
        if (a.locations[static_cast<std::size_t>(l)].role !=
            ta::LocRole::kBorder) {
          continue;
        }
        lia::Var v = m.solver.new_var(0);
        m.kappa[static_cast<std::size_t>(gloc(coin, l))] = LinExpr::term(v);
        sum.add_term(v, 1);
        any = true;
        m.reachable[static_cast<std::size_t>(gloc(coin, l))] = 1;
      }
      const ta::ParamExpr& count =
          coin ? sys_->env.num_coins : sys_->env.num_processes;
      if (any) {
        m.solver.add(Constraint::eq(sum, pexpr(m, count)));
      } else {
        // No border locations: the automaton must model zero entities.
        m.solver.add(Constraint::eq0(pexpr(m, count)));
      }
    }
    m.kappa0 = m.kappa;
    // Variable values (all zero at a round start).
    m.gval.assign(sys_->vars.size(), LinExpr{});
  }

  /// Shape (b) premise: those initial locations never occupied.
  void assert_initial_premise(Model& m, const spec::Spec& spec) {
    for (const auto& [coin, l] : spec.premise.locs) {
      const LinExpr& k = m.kappa0[static_cast<std::size_t>(gloc(coin, l))];
      if (!(k == LinExpr{})) m.solver.add(Constraint::eq0(k));
    }
  }

  /// Emits one topological batch pass for context level `segment`.
  void emit_part(Model& m, int segment) {
    for (const RuleView& rv : *rules_) {
      if (!allowed(rv, segment)) continue;
      const int from = gloc(rv.id.coin, rv.rule->from);
      const int to = gloc(rv.id.coin, rv.rule->to.dirac_target());
      if (!m.reachable[static_cast<std::size_t>(from)]) continue;
      reach(m, to);
      lia::Var x = m.solver.new_var(0, kBatchCap);
      m.batches.push_back({x, &rv, segment});
      // Token availability before the batch.
      LinExpr avail = m.kappa[static_cast<std::size_t>(from)];
      avail.add_term(x, -1);
      m.solver.add(Constraint::ge0(std::move(avail)));
      // Falling guards: exact conditional check via big-M.
      for (int gi : rv.falling) {
        const GuardInfo& info = table_->guards[static_cast<std::size_t>(gi)];
        // Per-firing self-increment of the guard's lhs by this rule.
        long long delta = 0;
        for (const auto& [v, b] : info.guard.lhs) {
          delta += b * rv.rule->update_of(v);
        }
        lia::Var used = m.solver.new_var(0, 1);
        LinExpr fires = LinExpr::term(x);  // x <= kBatchCap * used
        fires.add_term(used, -kBatchCap);
        m.solver.add(Constraint::le0(std::move(fires)));
        // lhs_before + delta*(x-1) <= rhs - 1 + BigM*(1-used)
        LinExpr e = lhs_expr(m, info.guard);
        e.add_term(x, delta).add_const(-delta);
        e -= pexpr(m, info.guard.rhs);
        e.add_const(1 - kBigM).add_term(used, kBigM);
        m.solver.add(Constraint::le0(std::move(e)));
      }
      // Apply the batch.
      shift(m, Edit::Kind::kKappa, from, x, -1);
      shift(m, Edit::Kind::kKappa, to, x, 1);
      for (ta::VarId v = 0; v < static_cast<ta::VarId>(sys_->vars.size());
           ++v) {
        long long u = rv.rule->update_of(v);
        if (u != 0) shift(m, Edit::Kind::kGval, v, x, u);
      }
    }
  }

  static std::vector<LinExpr>& exprs(Model& m, Edit::Kind kind) {
    return kind == Edit::Kind::kKappa ? m.kappa : m.gval;
  }

  /// kappa[slot] or gval[slot] += c * x, recorded on the trail.
  static void shift(Model& m, Edit::Kind kind, int slot, lia::Var x,
                    long long c) {
    exprs(m, kind)[static_cast<std::size_t>(slot)].add_term(x, Rational(c));
    m.trail.push_back({kind, slot, x, c});
  }

  /// Marks location `slot` reachable, recorded on the trail if it was not.
  static void reach(Model& m, int slot) {
    char& r = m.reachable[static_cast<std::size_t>(slot)];
    if (r) return;
    r = 1;
    m.trail.push_back({Edit::Kind::kReach, slot});
  }

  /// Milestone flip after a segment: the guard's lhs has crossed its
  /// threshold at this boundary (rising: becomes true; falling: locked).
  void milestone(Model& m, int guard) {
    const GuardInfo& info = table_->guards[static_cast<std::size_t>(guard)];
    LinExpr e = lhs_expr(m, info.guard);
    e -= pexpr(m, info.guard.rhs);
    m.solver.add(Constraint::ge0(std::move(e)));
  }

  void witness(Model& m, const spec::LocSet& set) {
    LinExpr sum;
    for (const auto& [coin, l] : set.locs) {
      sum += m.kappa[static_cast<std::size_t>(gloc(coin, l))];
    }
    sum.add_const(-1);
    m.solver.add(Constraint::ge0(std::move(sum)));
  }

  /// Emits segment `s` with whatever witness cuts land in it, then the
  /// milestone constraint closing the segment (if any). The two witness
  /// points of the F-premise/G-conclusion shape are unordered (the
  /// counterexample is Fφ ∧ F¬ψ); when both land in the same segment,
  /// `swap_cuts` selects which witness is pinned first.
  void emit_segment_with_cuts(Model& m, int s, int cut1, int cut2,
                              bool swap_cuts, const spec::Spec* spec,
                              const std::vector<int>& flips) {
    const int nseg = static_cast<int>(flips.size()) + 1;
    std::vector<const spec::LocSet*> cuts;
    if (spec && spec->shape == spec::Shape::kEventuallyImpliesGlobally) {
      if (cut1 == s && cut2 == s && swap_cuts) {
        cuts.push_back(&spec->conclusion);
        cuts.push_back(&spec->premise);
      } else {
        if (cut1 == s) cuts.push_back(&spec->premise);
        if (cut2 == s) cuts.push_back(&spec->conclusion);
      }
    } else if (spec && cut1 == s) {
      cuts.push_back(&spec->conclusion);
    }
    emit_part(m, s);
    for (const spec::LocSet* set : cuts) {
      if (spec != nullptr && set == &spec->conclusion) {
        m.marker_cons = static_cast<int>(m.solver.constraints().size());
        m.marker_var = m.solver.internal_size();
      }
      witness(m, *set);
      emit_part(m, s);
    }
    if (s < nseg - 1) milestone(m, flips[s]);
  }

  [[nodiscard]] static Mark mark(const Model& m) {
    return {m.trail.size(), m.batches.size()};
  }

  /// Undoes the edits past `to`, newest first. A batch variable is newer
  /// than every other term of the expressions it joins, so undoing a shift
  /// touches only the last entry of its expression.
  static void rewind(Model& m, Mark to) {
    while (m.trail.size() > to.trail) {
      const Edit& e = m.trail.back();
      const std::size_t slot = static_cast<std::size_t>(e.slot);
      if (e.kind == Edit::Kind::kReach) {
        m.reachable[slot] = 0;
      } else {
        exprs(m, e.kind)[slot].add_term(e.x, Rational(-e.c));
      }
      m.trail.pop_back();
    }
    m.batches.resize(to.nbatches);
  }

  /// Makes the asserted level stack equal flips[0..upto): pops levels past
  /// the common prefix, pushes the missing ones (one solver scope each,
  /// holding the segment's batches plus the milestone constraint).
  void sync_levels(const std::vector<int>& flips, std::size_t upto) {
    std::size_t common = 0;
    while (common < levels_.size() && common < upto &&
           levels_[common].guard == flips[common]) {
      ++common;
    }
    if (levels_.size() > common) {
      inc_.solver.pop_to(levels_[common].cp);
      rewind(inc_, levels_[common].before);
      levels_.resize(common);
    }
    for (std::size_t k = common; k < upto; ++k) {
      Level lv;
      lv.guard = flips[k];
      lv.before = mark(inc_);
      lv.cp = inc_.solver.push();
      emit_part(inc_, static_cast<int>(k));
      lv.marker_cons = static_cast<int>(inc_.solver.constraints().size());
      lv.marker_var = inc_.solver.internal_size();
      milestone(inc_, flips[k]);
      levels_.push_back(std::move(lv));
    }
  }

  const ta::System* sys_;
  const GuardTable* table_;
  const std::vector<RuleView>* rules_;
  lia::SolverOptions solver_opts_;  // defaults + the cancel source
  const int n_proc_;
  const int n_coin_;

  std::vector<int> flip_pos_;   // guard -> position in cur_flips_
  std::vector<int> cur_flips_;

  Model inc_;                   // long-lived incremental model
  std::vector<Level> levels_;   // asserted prefix (scope per level)
  long long fresh_pivots_ = 0;
  long long nqueries_ = 0;
};

// ---------------------------------------------------------------------------
// Milestone-order enumeration with precedence pruning.
// ---------------------------------------------------------------------------
/// What the visitor tells the enumeration to do next.
enum class Walk { kStop, kContinue, kSkipChildren };

struct Enumerator {
  const GuardTable& table;
  bool prune;

  using VisitFn = std::function<Walk(const std::vector<int>&)>;

  /// Calls visit(flips) for every admissible milestone order (including the
  /// empty one) in DFS prefix order; kSkipChildren prunes the subtree below
  /// the current order. Returns false iff stopped by kStop.
  bool run(const VisitFn& visit) const {
    std::vector<int> flips;
    std::vector<bool> used(table.guards.size(), false);
    return rec(flips, used, visit);
  }

  [[nodiscard]] bool admissible_next(int g, const std::vector<int>& flips,
                                     const std::vector<bool>& used) const {
    if (used[static_cast<std::size_t>(g)]) return false;
    if (!prune) return true;
    const GuardInfo& info = table.guards[static_cast<std::size_t>(g)];
    if (!info.flippable) {
      // Truth is constant: only an initially-true flip at position 0 makes
      // sense.
      if (!info.can_start_true || !flips.empty()) return false;
    }
    for (int h : info.must_follow) {
      if (!used[static_cast<std::size_t>(h)]) return false;
    }
    // Independence quotient: if the previous milestone p commutes before g
    // (every (…, p, g)-schedule maps into (…, g, p) by delaying p's gated
    // rules) keep only the index-ascending representative.
    if (!flips.empty()) {
      int p = flips.back();
      const GuardInfo& prev = table.guards[static_cast<std::size_t>(p)];
      if (p > g && prev.flippable && prev.swap_allowed_before(g)) {
        return false;
      }
    }
    return true;
  }

 private:
  bool rec(std::vector<int>& flips, std::vector<bool>& used,
           const VisitFn& visit) const {
    Walk w = visit(flips);
    if (w == Walk::kStop) return false;
    if (w == Walk::kSkipChildren) return true;
    for (int g = 0; g < table.num_guards(); ++g) {
      if (!admissible_next(g, flips, used)) continue;
      used[static_cast<std::size_t>(g)] = true;
      flips.push_back(g);
      bool cont = rec(flips, used, visit);
      flips.pop_back();
      used[static_cast<std::size_t>(g)] = false;
      if (!cont) return false;
    }
    return true;
  }
};

}  // namespace

namespace {

/// Earliest segment (context level) at which a witness over `set` can hold:
/// some rule *into* a set location must be allowed at that level or earlier
/// (tokens only reach the witness locations through such rules). Returns
/// m (= flips+1) when unplaceable under this order. A guard→flip-position
/// array turns the per-level allowance rescans into one interval
/// intersection per rule.
int first_witness_segment(const GuardTable& table,
                          const std::vector<RuleView>& rules,
                          const spec::LocSet& set,
                          const std::vector<int>& flips) {
  const int m = static_cast<int>(flips.size()) + 1;
  std::vector<int> pos(table.guards.size(), kUnflipped);
  for (std::size_t i = 0; i < flips.size(); ++i) {
    pos[static_cast<std::size_t>(flips[i])] = static_cast<int>(i);
  }
  int best = m;
  for (const RuleView& rv : rules) {
    bool targets_set = false;
    ta::LocId to = rv.rule->to.dirac_target();
    for (const auto& [coin, l] : set.locs) {
      if (coin == rv.id.coin && l == to) targets_set = true;
    }
    if (!targets_set) continue;
    // Allowed levels form the interval [lo, hi]: every rising guard must
    // have flipped strictly before, no falling guard may have.
    int lo = 0;
    int hi = m - 1;
    for (int g : rv.rising) {
      int p = pos[static_cast<std::size_t>(g)];
      if (p == kUnflipped) {
        lo = m;  // never allowed under this order
        break;
      }
      lo = std::max(lo, p + 1);
    }
    for (int g : rv.falling) {
      hi = std::min(hi, pos[static_cast<std::size_t>(g)]);
    }
    if (lo <= hi) best = std::min(best, lo);
  }
  return best;
}

// ---------------------------------------------------------------------------
// Partitioned deterministic enumeration.
//
// The canonical enumeration order is level-major: all milestone orders of
// length d (in lexicographic sibling order) before any of length d+1, each
// followed by its witness placements — the order the pre-partitioned serial
// checker already used. check_spec splits that tree statically at
// CheckOptions::partition_depth: prefixes shorter than the split form the
// serial *stem*, every surviving split-depth prefix roots one *unit*, and
// workers claim units from a shared atomic cursor in canonical sibling
// order, running each claimed unit to completion before claiming the next.
// Each unit runs breadth-first with its own warm incremental solver — so
// its per-query pivot counts depend only on the unit, never on which worker
// ran it or what ran concurrently — and records per-level tallies. The merge
// then replays the canonical order: totals accumulate level by level, and
// the first counterexample in canonical order wins (an atomic min over
// (depth, unit) keys lets doomed units stop early without ever influencing
// the merged bytes). The result: CheckResult is byte-identical for every
// `workers` value, within budget.
// ---------------------------------------------------------------------------

/// Canonical position of (depth, unit) in the level-major order; smaller is
/// earlier. Unit 0 is the stem, which only owns depths below the split.
constexpr std::uint64_t order_key(int depth, std::size_t unit) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(depth))
          << 32) |
         static_cast<std::uint32_t>(unit);
}
constexpr std::uint64_t kNoCe = ~std::uint64_t{0};

/// Everything the stem and the subtree units share.
struct EnumContext {
  const ta::System* sys = nullptr;
  const spec::Spec* spec = nullptr;
  const GuardTable* table = nullptr;
  const std::vector<RuleView>* rules = nullptr;
  const CheckOptions* opts = nullptr;
  const Enumerator* enumerator = nullptr;
  SharedBudget* budget = nullptr;
  bool two_cuts = false;
  /// order_key of the canonically-best counterexample found so far.
  std::atomic<std::uint64_t> best_ce{kNoCe};
  std::atomic<bool> budget_hit{false};
  /// A unit worker of THIS check threw (containment: siblings of this check
  /// wind down locally; the shared budget — and with it every sibling
  /// OBLIGATION — is never cancelled by an internal error). The stored
  /// exceptions rethrow after the join, to be classified at the obligation
  /// task boundary.
  std::atomic<bool> failed{false};
};

/// Cancel source handed to a unit's solver: trips on budget exhaustion
/// (deadline included, so --time-budget overshoot stays bounded by the
/// solver's pivot-poll granularity) or once a canonically-earlier
/// counterexample makes this unit's current level moot. self_key is written
/// by the owning worker thread only and read back on the same thread from
/// inside the solver.
struct UnitCancel final : util::CancelSource {
  const SharedBudget* budget = nullptr;
  const std::atomic<std::uint64_t>* best_ce = nullptr;
  /// Check-local stop signals: a sibling unit's worker threw (failed), or
  /// the caller's per-obligation deadline tripped (extra; may be null).
  const std::atomic<bool>* failed = nullptr;
  const util::CancelSource* extra = nullptr;
  std::uint64_t self_key = 0;
  [[nodiscard]] bool cancelled() const override {
    return best_ce->load(std::memory_order_relaxed) < self_key ||
           failed->load(std::memory_order_relaxed) ||
           (extra != nullptr && extra->cancelled()) || budget->exhausted();
  }
};

/// One BFS work item: a milestone-order prefix plus its sibling-group id.
/// Children of one parent share a group; UNSAT-core sibling skipping never
/// crosses group (or unit) boundaries, which keeps it order-deterministic.
struct PrefixItem {
  std::vector<int> flips;
  long long group = 0;
};

/// One enumeration unit: the breadth-first exploration of one milestone-
/// prefix subtree with its own warm incremental solver (built when a worker
/// adopts the unit: the prelude, then the root's scopes replayed by the
/// encoder's level sync; freed when the unit is done), advanced one level
/// at a time so a worker interleaves its units in canonical level order.
/// Unit 0 — the stem — starts at the empty prefix, stops below the split
/// depth, and exports the surviving split-depth prefixes as the roots of
/// units 1..K.
class SubtreeRun {
 public:
  SubtreeRun(EnumContext& cx, std::size_t index, std::vector<int> root,
             int max_depth, std::vector<std::vector<int>>* overflow)
      : cx_(&cx),
        index_(index),
        depth_(static_cast<int>(root.size())),
        base_depth_(depth_),
        max_depth_(max_depth),
        overflow_(overflow) {
    cancel_.budget = cx.budget;
    cancel_.best_ce = &cx.best_ce;
    cancel_.failed = &cx.failed;
    cancel_.extra = cx.opts->extra_cancel;
    cancel_.self_key = order_key(depth_, index_);
    cur_.push_back({std::move(root), 0});
  }

  [[nodiscard]] bool active() const { return active_; }
  [[nodiscard]] std::size_t index() const { return index_; }
  /// Cumulative simplex pivots spent by this unit's warm solver (root-scope
  /// replay included) through its last level. A unit is run by exactly one
  /// worker, so this attributes cleanly to CheckResult::per_worker.
  [[nodiscard]] long long pivots_total() const { return pivot_mark_; }
  [[nodiscard]] bool unknown_at_or_below(int cutoff) const {
    return unknown_depth_ >= 0 && unknown_depth_ <= cutoff;
  }
  [[nodiscard]] std::optional<Counterexample> take_ce() {
    return std::move(ce_);
  }

  /// Adds this unit's budget charges / solver queries / pivots for every
  /// level with depth <= cutoff into the totals. Callers only ever ask for
  /// cutoffs this unit is guaranteed to have completed (see the merge).
  void accumulate(int cutoff, long long* charges, long long* queries,
                  long long* pivots) const {
    for (std::size_t i = 0; i < level_charges_.size(); ++i) {
      if (base_depth_ + static_cast<int>(i) > cutoff) break;
      *charges += level_charges_[i];
      *queries += level_queries_[i];
      *pivots += level_pivots_[i];
    }
  }

  /// Processes every prefix at the current depth — probe, witness-placement
  /// queries, expansion into the next level — then advances. Deactivates on
  /// exhaustion, counterexample, budget, or canonical-order abort.
  void advance_level() {
    if (!active_) return;
    // First advance = this worker thread adopting the unit: the unit was
    // constructed on the obligation thread, but its encoder is built and
    // all its solving happens here, so per-thread adoption counts measure
    // worker imbalance.
    if (!adopted_) {
      adopted_ = true;
      util::fault_point("schema.unit_adopt");
      obs::add(obs::Counter::kSchemaUnits);
      encoder_ = std::make_unique<Encoder>(*cx_->sys, *cx_->table,
                                           *cx_->rules, *cx_->opts, &cancel_);
    }
    obs::add(obs::Counter::kSchemaUnitLevels);
    obs::Span span("unit");
    if (span.active()) {
      span.args("\"unit\":" + std::to_string(index_) +
                ",\"depth\":" + std::to_string(depth_));
    }
    cancel_.self_key = order_key(depth_, index_);
    level_charges_.push_back(0);
    level_queries_.push_back(0);
    level_pivots_.push_back(0);
    long long group = -1;
    bool skip_rest = false;
    for (PrefixItem& item : cur_) {
      if (!poll()) break;
      if (item.group != group) {
        group = item.group;
        skip_rest = false;
      }
      if (!process(item, &skip_rest)) break;
    }
    level_queries_.back() = encoder_->queries() - query_mark_;
    query_mark_ = encoder_->queries();
    level_pivots_.back() = encoder_->pivots() - pivot_mark_;
    pivot_mark_ = encoder_->pivots();
    cur_ = std::move(next_);
    next_.clear();
    ++depth_;
    if (stopped_ || cur_.empty()) {
      // Done: the merge reads only the tallies, so the warm solver goes now
      // rather than living on until every unit of the check has finished.
      active_ = false;
      encoder_.reset();
    }
  }

 private:
  /// False once this unit must stop: a canonically-earlier CE exists (its
  /// remaining work can no longer reach the merged result) or the shared
  /// budget tripped. Polled before every query, so cancellation latency is
  /// one query, not one subtree.
  bool poll() {
    if (cx_->best_ce.load(std::memory_order_relaxed) <
        order_key(depth_, index_)) {
      stopped_ = true;
      return false;
    }
    // A sibling unit's worker threw: this check is being torn down (the
    // stored exception rethrows after the join), so partial results are
    // moot — stop without touching budget_hit or the shared budget.
    if (cx_->failed.load(std::memory_order_relaxed)) {
      stopped_ = true;
      return false;
    }
    // The caller's per-obligation deadline: a check-local budget cut — this
    // obligation goes inconclusive, sibling obligations run on.
    if (cx_->opts->extra_cancel != nullptr &&
        cx_->opts->extra_cancel->cancelled()) {
      hit_budget();
      return false;
    }
    if (cx_->budget->cancel.cancelled()) {
      hit_budget();
      return false;
    }
    return true;
  }

  void hit_budget() {
    // exchange: log the budget trip once per check, not once per unit.
    if (!cx_->budget_hit.exchange(true, std::memory_order_relaxed)) {
      CTAVER_LOG(kDebug) << "check_spec(" << cx_->spec->name
                         << "): budget exhausted at depth " << depth_;
    }
    stopped_ = true;
  }

  /// Reserves one schema query from the shared budget (core-skipped probes
  /// included, which is what keeps nschemas independent of core_skip).
  bool charge_one() {
    if (!cx_->budget->charge(1)) {
      hit_budget();
      return false;
    }
    obs::add(obs::Counter::kSchemaSchemas);
    ++level_charges_.back();
    return true;
  }

  void note_unknown() {
    if (unknown_depth_ < 0) unknown_depth_ = depth_;
  }

  void found_ce(Counterexample ce) {
    ce_ = std::move(ce);
    stopped_ = true;
    std::uint64_t key = order_key(depth_, index_);
    std::uint64_t prev = cx_->best_ce.load(std::memory_order_relaxed);
    while (prev > key &&
           !cx_->best_ce.compare_exchange_weak(prev, key,
                                               std::memory_order_relaxed)) {
    }
  }

  /// One prefix: feasibility probe (with UNSAT-core sibling skipping), spec
  /// queries over the witness cut placements, then expansion. Returns false
  /// when the run must stop.
  bool process(const PrefixItem& item, bool* skip_rest) {
    const std::vector<int>& flips = item.flips;
    const CheckOptions& opts = *cx_->opts;
    const spec::Spec& spec = *cx_->spec;
    // The prefix query is a sub-conjunction of every extension's query, so
    // an unrealizable prefix prunes its whole subtree without losing
    // counterexamples. This is what keeps category (C) tractable.
    if (!flips.empty()) {
      if (!charge_one()) return false;
      if (*skip_rest) {
        // A same-group sibling's probe was refuted without its final
        // milestone constraint — the only constraint this prefix does not
        // share — so this probe is UNSAT too. Charged like a real probe
        // (verdicts, nschemas, and report bytes are unchanged); the solver
        // call is skipped, which is where the query/pivot counts drop.
        obs::add(obs::Counter::kSchemaCoreSkips);
        return true;
      }
      bool unknown = false, sat = false, siblings_unsat = false;
      if (opts.incremental) {
        sat = encoder_->probe(
            flips, &unknown, opts.core_skip ? &siblings_unsat : nullptr);
      } else {
        (void)encoder_->solve_fresh(flips, -1, -1, nullptr, &unknown, &sat);
      }
      if (unknown) note_unknown();
      if (!sat && !unknown) {
        if (siblings_unsat) *skip_rest = true;
        return true;  // subtree pruned
      }
    }
    const int m = static_cast<int>(flips.size()) + 1;
    // Witness placement: cuts are only meaningful from the first segment
    // where a rule into the witness set is allowed. The two witnesses of
    // the F/G shape are unordered, so they range independently; when they
    // share a segment both within-segment orders are tried.
    int c1_lo = cx_->two_cuts
                    ? first_witness_segment(*cx_->table, *cx_->rules,
                                            spec.premise, flips)
                    : first_witness_segment(*cx_->table, *cx_->rules,
                                            spec.conclusion, flips);
    int c2_first = cx_->two_cuts
                       ? first_witness_segment(*cx_->table, *cx_->rules,
                                               spec.conclusion, flips)
                       : -1;
    const bool cut_skip = opts.core_skip && opts.incremental &&
                          cx_->two_cuts;
    for (int c1 = c1_lo; c1 < m; ++c1) {
      int c2_lo = cx_->two_cuts ? c2_first : -1;
      int c2_hi = cx_->two_cuts ? m - 1 : -1;
      // Set once an UNSAT at (c1, c2) is refuted by a core that ends before
      // the conclusion witness: every later (c1, c2' > c2) placement of the
      // unswapped within-segment order embeds that core and is skipped
      // (still charged, so nschemas and report bytes are unchanged).
      bool c2_rest_unsat = false;
      for (int c2 = c2_lo; c2 <= c2_hi; ++c2) {
        for (int swap = 0; swap <= (cx_->two_cuts && c1 == c2 ? 1 : 0);
             ++swap) {
          if (!poll()) return false;
          if (!charge_one()) return false;
          if (c2_rest_unsat && swap == 0) {
            obs::add(obs::Counter::kSchemaCoreSkips);
            continue;  // UNSAT by embedding
          }
          bool unknown = false;
          std::optional<Counterexample> ce;
          if (opts.incremental) {
            bool later_unsat = false;
            bool sat = encoder_->query_sat(
                flips, c1, c2, swap == 1, spec, &unknown,
                cut_skip && swap == 0 ? &later_unsat : nullptr);
            if (later_unsat) c2_rest_unsat = true;
            if (sat) {
              // Re-solve the hit in a fresh solver: the reported model (and
              // the minimized parameters) must not depend on warm-solver
              // state, so reports stay identical across enumeration paths.
              bool fresh_unknown = false;
              ce = encoder_->solve_fresh(flips, c1, c2, &spec,
                                         &fresh_unknown, nullptr, swap == 1);
              if (fresh_unknown) unknown = true;
              if (!ce && !fresh_unknown) {
                // The scoped and fresh encodings are equisatisfiable; treat
                // a disagreement as inconclusive, never as a proof.
                CTAVER_LOG(kWarn)
                    << "check_spec(" << spec.name
                    << "): incremental/fresh solver disagreement";
                unknown = true;
              }
            }
          } else {
            ce = encoder_->solve_fresh(flips, c1, c2, &spec, &unknown,
                                       nullptr, swap == 1);
          }
          if (unknown) note_unknown();
          if (ce) {
            found_ce(std::move(*ce));
            return false;
          }
        }
      }
    }
    // Expand admissible extensions; split-depth children become unit roots.
    std::vector<bool> used(cx_->table->guards.size(), false);
    for (int g : flips) used[static_cast<std::size_t>(g)] = true;
    long long group = next_group_++;
    for (int g = 0; g < cx_->table->num_guards(); ++g) {
      if (!cx_->enumerator->admissible_next(g, flips, used)) continue;
      std::vector<int> child = flips;
      child.push_back(g);
      if (depth_ + 1 < max_depth_) {
        next_.push_back({std::move(child), group});
      } else {
        overflow_->push_back(std::move(child));
      }
    }
    return true;
  }

  EnumContext* cx_;
  std::size_t index_;
  int depth_;            // depth of the prefixes in cur_
  const int base_depth_;
  const int max_depth_;  // exclusive: deeper children go to overflow_
  std::vector<std::vector<int>>* overflow_;

  UnitCancel cancel_;
  std::unique_ptr<Encoder> encoder_;  // from adoption until the unit is done
  std::vector<PrefixItem> cur_, next_;
  long long next_group_ = 1;

  // Per-level tallies (indexed from base_depth_) for the canonical merge.
  std::vector<long long> level_charges_, level_queries_, level_pivots_;
  long long query_mark_ = 0, pivot_mark_ = 0;
  int unknown_depth_ = -1;
  bool adopted_ = false;  // obs: first advance_level() ran (on its worker)
  bool active_ = true;
  bool stopped_ = false;
  std::optional<Counterexample> ce_;
};

}  // namespace

CheckResult check_spec(const ta::System& sys, const spec::Spec& spec,
                       const CheckOptions& opts) {
  util::Stopwatch watch;
  CheckResult result;

  if (spec.premise.empty() &&
      spec.shape == spec::Shape::kEventuallyImpliesGlobally) {
    // F EX{∅} is false: the implication holds vacuously.
    result.holds = true;
    result.complete = true;
    return result;
  }
  if (spec.conclusion.empty()) {
    result.holds = true;
    result.complete = true;
    return result;
  }

  GuardTable table = analyze_guards(sys, opts.prune);
  std::vector<RuleView> rules = make_rule_views(sys, table);
  Enumerator enumerator{table, opts.prune};

  // Budget: either the caller's shared pool (pipeline mode — exhaustion
  // anywhere cancels every sibling obligation) or a private one scoped to
  // this call, built from the per-call limits.
  SharedBudget local_budget(opts.max_schemas, opts.time_budget_s,
                            opts.max_rss_mb);

  EnumContext cx;
  cx.sys = &sys;
  cx.spec = &spec;
  cx.table = &table;
  cx.rules = &rules;
  cx.opts = &opts;
  cx.enumerator = &enumerator;
  cx.budget = opts.budget != nullptr ? opts.budget : &local_budget;
  cx.two_cuts = spec.shape == spec::Shape::kEventuallyImpliesGlobally;

  const int split = std::max(1, opts.partition_depth);

  // The stem: prefixes shorter than the split depth, explored serially with
  // one warm solver. It is canonically first at every level, so it runs to
  // completion (or to its counterexample) before any unit starts, and its
  // expansion yields the unit roots in canonical sibling order.
  std::vector<std::vector<int>> roots;
  SubtreeRun stem(cx, 0, {}, split, &roots);
  while (stem.active()) stem.advance_level();

  long long nschemas = 0, nqueries = 0, npivots = 0;
  stem.accumulate(INT_MAX, &nschemas, &nqueries, &npivots);
  bool unknown = stem.unknown_at_or_below(INT_MAX);
  std::optional<Counterexample> ce = stem.take_ce();

  if (!ce && !cx.budget_hit.load() && !roots.empty()) {
    std::vector<std::unique_ptr<SubtreeRun>> units;
    units.reserve(roots.size());
    for (std::size_t i = 0; i < roots.size(); ++i) {
      units.push_back(std::make_unique<SubtreeRun>(
          cx, i + 1, std::move(roots[i]), INT_MAX, nullptr));
    }

    // Unit dispatch by a shared claim index: workers claim the next
    // unclaimed unit from an atomic cursor (canonical sibling order)
    // and run it level by level to completion (or CE/budget cancellation),
    // so no worker parks while a sibling holds all the deep subtrees.
    // Placement cannot change the merged bytes: per-unit work is
    // placement-independent (own warm solver, prelude + root scopes
    // replayed), and the merge only consumes levels a unit is guaranteed to
    // have completed. A worker that runs ahead of a slower sibling can only
    // burn budget, never change the merged bytes (the merge is by-level).
    int workers = opts.workers > 0 ? opts.workers
                                   : util::ThreadPool::hardware_workers();
    workers = std::min(workers, static_cast<int>(units.size()));
    CTAVER_LOG(kDebug) << "check_spec(" << spec.name << "): " << units.size()
                       << " subtree units at split depth " << split << ", "
                       << workers << " enumeration worker(s)";
    std::vector<std::exception_ptr> errors(
        static_cast<std::size_t>(std::max(workers, 1)));
    result.per_worker.assign(static_cast<std::size_t>(std::max(workers, 1)),
                             CheckResult::WorkerStat{});
    std::atomic<std::size_t> cursor{0};
    auto run_worker = [&](int w) {
      CheckResult::WorkerStat& stat =
          result.per_worker[static_cast<std::size_t>(w)];
      try {
        for (;;) {
          const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= units.size()) break;
          SubtreeRun& u = *units[i];
          // CE-aware claim skip: a recorded best CE canonically before this
          // unit's first level means the unit could only stop at its first
          // poll() anyway — its whole subtree is outside every merge cutoff
          // (best_ce shrinks monotonically, so the check never un-skips).
          // Skipping at claim time saves adopting a warm solver for a
          // doomed subtree without touching merged bytes.
          if (cx.best_ce.load(std::memory_order_relaxed) <
              order_key(split, u.index())) {
            obs::add(obs::Counter::kSchemaClaimSkips);
            continue;
          }
          ++stat.units;
          while (u.active()) u.advance_level();
          stat.pivots += u.pivots_total();
        }
      } catch (const util::Cancelled&) {
        // A Cancelled escaping a unit (e.g. an injected cancel) left some
        // subtree unexplored: the check is inconclusive, never "complete" —
        // a swallowed cancel must not let the merge claim holds over a
        // region nobody searched.
        cx.budget_hit.store(true, std::memory_order_relaxed);
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
        // Containment: wind down THIS check's sibling units via the
        // check-local flag — never the shared budget, which would cancel
        // every sibling obligation and break their byte-identity with an
        // uninjected run.
        cx.failed.store(true, std::memory_order_relaxed);
      }
    };
    if (workers <= 1) {
      run_worker(0);
    } else {
      // Nested-parallelism spill: the enumeration workers run as tasks on
      // the caller's pool (a standalone call gets a private one), and this
      // (obligation) thread acts as worker 0, then drains its own remaining
      // tasks instead of parking — total thread count stays at the pool's
      // width, never jobs × workers.
      util::TaskGroup group;  // declared first: outlives a private pool
      std::optional<util::ThreadPool> own;
      util::ThreadPool& pool =
          opts.pool != nullptr ? *opts.pool : own.emplace(workers - 1);
      for (int w = 1; w < workers; ++w) {
        pool.submit([&run_worker, w] { run_worker(w); }, {}, &group);
      }
      run_worker(0);
      pool.run_group(group);
    }
    for (std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }

    // Canonical merge: replay the level-major order. Units strictly before
    // the CE unit contribute through the CE depth, units after it through
    // the depth before — exactly the region each is guaranteed to have
    // completed (a unit can only abort at positions canonically after the
    // final best_ce key). With no counterexample every unit ran dry and
    // contributes everything.
    std::uint64_t best = cx.best_ce.load();
    if (best == kNoCe) {
      for (auto& u : units) {
        u->accumulate(INT_MAX, &nschemas, &nqueries, &npivots);
        unknown = unknown || u->unknown_at_or_below(INT_MAX);
      }
    } else {
      const int ce_depth = static_cast<int>(best >> 32);
      const std::size_t ce_unit =
          static_cast<std::size_t>(best & 0xffffffffu);
      for (auto& u : units) {
        if (u->index() < ce_unit) {
          u->accumulate(ce_depth, &nschemas, &nqueries, &npivots);
          unknown = unknown || u->unknown_at_or_below(ce_depth);
        } else if (u->index() == ce_unit) {
          // The winner stopped at its (canonically-first) counterexample,
          // so its cumulative tallies are exactly the canonical region.
          u->accumulate(INT_MAX, &nschemas, &nqueries, &npivots);
          unknown = unknown || u->unknown_at_or_below(INT_MAX);
          ce = u->take_ce();
        } else {
          u->accumulate(ce_depth - 1, &nschemas, &nqueries, &npivots);
          unknown = unknown || u->unknown_at_or_below(ce_depth - 1);
        }
      }
    }
  }

  result.nschemas = nschemas;
  result.nqueries = nqueries;
  result.npivots = npivots;
  result.seconds = watch.seconds();
  result.ce = std::move(ce);
  result.holds = !result.ce.has_value();
  // Finding a CE counts as a complete (conclusive) answer.
  result.complete = !cx.budget_hit.load() && !unknown;
  if (result.holds && !result.complete) {
    CTAVER_LOG(kWarn) << "check_spec(" << spec.name
                      << "): budget exhausted; result is inconclusive";
    result.holds = false;
  }
  return result;
}

long long count_schemas(const ta::System& sys, const spec::Spec& spec,
                        bool prune, long long cap) {
  GuardTable table = analyze_guards(sys, prune);
  Enumerator enumerator{table, prune};
  const bool two_cuts =
      spec.shape == spec::Shape::kEventuallyImpliesGlobally;
  long long count = 0;
  enumerator.run([&](const std::vector<int>& flips) {
    const long long m = static_cast<long long>(flips.size()) + 1;
    // Unordered witness pair: m*m placements plus m same-segment swaps.
    count += two_cuts ? m * (m + 1) : m;
    return count < cap ? Walk::kContinue : Walk::kStop;
  });
  return std::min(count, cap);
}

int count_milestones(const ta::System& sys, bool prune) {
  GuardTable table = analyze_guards(sys, prune);
  int n = 0;
  for (const GuardInfo& g : table.guards) {
    if (!prune || g.flippable || g.can_start_true) ++n;
  }
  return n;
}

}  // namespace ctaver::schema
