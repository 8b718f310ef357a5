#include "schema/guards.h"

#include <algorithm>

#include "lia/solver.h"

namespace ctaver::schema {

namespace {

using lia::Constraint;
using lia::LinExpr;
using lia::Solver;
using util::Rational;

/// Base solver holding one integer variable per parameter plus RC.
Solver rc_solver(const ta::System& sys) {
  Solver s;
  std::vector<lia::Var> pvars;
  for (std::size_t i = 0; i < sys.env.params.size(); ++i) {
    pvars.push_back(s.new_var(0));
  }
  auto expr_of = [&](const ta::ParamExpr& e) {
    LinExpr out(Rational(e.constant));
    for (ta::ParamId p = 0; p < static_cast<ta::ParamId>(pvars.size()); ++p) {
      long long c = e.coeff(p);
      if (c != 0) out.add_term(pvars[static_cast<std::size_t>(p)], Rational(c));
    }
    return out;
  };
  for (const ta::ParamConstraint& rc : sys.env.resilience) {
    LinExpr e = expr_of(rc.expr);
    switch (rc.op) {
      case ta::CmpOp::kGe:
        s.add(Constraint::ge0(e));
        break;
      case ta::CmpOp::kGt:
        s.add(Constraint::ge0(e - LinExpr(Rational(1))));
        break;
      case ta::CmpOp::kLe:
        s.add(Constraint::le0(e));
        break;
      case ta::CmpOp::kLt:
        s.add(Constraint::le0(e + LinExpr(Rational(1))));
        break;
      case ta::CmpOp::kEq:
        s.add(Constraint::eq0(e));
        break;
    }
  }
  return s;
}

/// Converts a guard's rhs into a LinExpr over the parameter variables
/// (which were created first, so ParamId == lia::Var).
LinExpr rhs_expr(const ta::Guard& g) {
  LinExpr out(Rational(g.rhs.constant));
  for (std::size_t p = 0; p < g.rhs.coeffs.size(); ++p) {
    long long c = g.rhs.coeffs[p];
    if (c != 0) out.add_term(static_cast<lia::Var>(p), Rational(c));
  }
  return out;
}

}  // namespace

GuardTable analyze_guards(const ta::System& sys, bool prune) {
  GuardTable table;

  auto intern = [&](const ta::Guard& g) {
    for (int i = 0; i < table.num_guards(); ++i) {
      if (table.guards[static_cast<std::size_t>(i)].guard == g) return i;
    }
    GuardInfo info;
    info.guard = g;
    info.rising = g.rel == ta::GuardRel::kGe;
    table.guards.push_back(std::move(info));
    return table.num_guards() - 1;
  };

  for (bool coin : {false, true}) {
    const ta::Automaton& a = coin ? sys.coin : sys.process;
    for (ta::RuleId r = 0; r < static_cast<ta::RuleId>(a.rules.size()); ++r) {
      RuleGuards rg;
      rg.coin = coin;
      rg.rule = r;
      for (const ta::Guard& g : a.rules[static_cast<std::size_t>(r)].guards) {
        if (g.lhs.empty()) continue;  // constant guard: treat as true
        int idx = intern(g);
        (table.guards[static_cast<std::size_t>(idx)].rising ? rg.rising
                                                            : rg.falling)
            .push_back(idx);
      }
      table.rules.push_back(std::move(rg));
    }
  }

  // Flippability: some rule increments an lhs variable with positive weight.
  auto increments_lhs = [&](const ta::Rule& rule, const ta::Guard& g) {
    for (const auto& [v, b] : g.lhs) {
      if (b > 0 && rule.update_of(v) > 0) return true;
    }
    return false;
  };
  for (GuardInfo& info : table.guards) {
    bool some = false;
    for (bool coin : {false, true}) {
      const ta::Automaton& a = coin ? sys.coin : sys.process;
      for (const ta::Rule& rule : a.rules) {
        if (increments_lhs(rule, info.guard)) {
          some = true;
          break;
        }
      }
      if (some) break;
    }
    info.flippable = some;
  }

  if (!prune) {
    for (GuardInfo& info : table.guards) info.can_start_true = true;
    return table;
  }

  // Truth at the all-zero start: guard value with all variables at 0 is
  // "0 REL rhs(p)". Rising: true iff 0 >= rhs; falling *locks* at start iff
  // 0 >= rhs as well (the guard text 0 < rhs is then false). Either way the
  // boundary-0 flip is possible iff RC ∧ rhs <= 0 is satisfiable.
  Solver base = rc_solver(sys);
  for (GuardInfo& info : table.guards) {
    Solver probe = base;
    probe.add(Constraint::le0(rhs_expr(info.guard)));
    info.can_start_true = probe.check() != lia::Result::kUnsat;
  }

  // Independence data: per guard, the set of guards whose lhs can still be
  // incremented by its gated rules or anything downstream of them in the
  // location graph, plus delay-safety (no falling gates downstream).
  {
    // Location reachability per automaton (small graphs: dense closure).
    auto closure = [&](const ta::Automaton& a) {
      const std::size_t n = a.locations.size();
      std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
      for (std::size_t l = 0; l < n; ++l) reach[l][l] = true;
      bool changed = true;
      while (changed) {
        changed = false;
        for (const ta::Rule& r : a.rules) {
          for (const auto& [to, p] : r.to.outcomes) {
            (void)p;
            for (std::size_t l = 0; l < n; ++l) {
              if (reach[l][static_cast<std::size_t>(r.from)] &&
                  !reach[l][static_cast<std::size_t>(to)]) {
                reach[l][static_cast<std::size_t>(to)] = true;
                changed = true;
              }
            }
          }
        }
      }
      return reach;
    };
    std::vector<std::vector<bool>> proc_reach = closure(sys.process);
    std::vector<std::vector<bool>> coin_reach = closure(sys.coin);

    for (int gi = 0; gi < table.num_guards(); ++gi) {
      GuardInfo& g = table.guards[static_cast<std::size_t>(gi)];
      g.contrib.assign(static_cast<std::size_t>(table.num_guards()), false);
      for (const RuleGuards& rg : table.rules) {
        bool gated = false;
        for (int x : rg.rising) gated |= x == gi;
        for (int x : rg.falling) gated |= x == gi;
        if (!gated) continue;
        const ta::Automaton& a = rg.coin ? sys.coin : sys.process;
        const auto& reach = rg.coin ? coin_reach : proc_reach;
        const ta::Rule& gated_rule =
            a.rules[static_cast<std::size_t>(rg.rule)];
        // Scan gated rule + everything downstream in the same automaton.
        for (const RuleGuards& rg2 : table.rules) {
          if (rg2.coin != rg.coin) continue;
          const ta::Rule& r2 = a.rules[static_cast<std::size_t>(rg2.rule)];
          bool downstream = rg2.rule == rg.rule;
          for (const auto& [to, p] : gated_rule.to.outcomes) {
            (void)p;
            downstream |= reach[static_cast<std::size_t>(to)]
                               [static_cast<std::size_t>(r2.from)];
          }
          if (!downstream) continue;
          if (!rg2.falling.empty() && rg2.rule != rg.rule) {
            g.delay_safe = false;
          }
          for (int hi = 0; hi < table.num_guards(); ++hi) {
            const GuardInfo& h = table.guards[static_cast<std::size_t>(hi)];
            for (const auto& [v, b] : h.guard.lhs) {
              if (b > 0 && r2.update_of(v) > 0) {
                g.contrib[static_cast<std::size_t>(hi)] = true;
              }
            }
          }
        }
      }
    }
  }

  // Precedence: a guard g with an RC-certainly-positive threshold flips
  // (rising: unlocks; falling: locks) only after its lhs grew, so it must
  // follow rising guard h if every rule that increments g's lhs carries h.
  for (int gi = 0; gi < table.num_guards(); ++gi) {
    GuardInfo& g = table.guards[static_cast<std::size_t>(gi)];
    if (g.can_start_true || !g.flippable) continue;
    // Collect candidate h sets: intersection over incrementing rules of
    // their rising-guard sets.
    bool first = true;
    std::vector<int> common;
    for (const RuleGuards& rg : table.rules) {
      const ta::Automaton& a = rg.coin ? sys.coin : sys.process;
      const ta::Rule& rule = a.rules[static_cast<std::size_t>(rg.rule)];
      if (!increments_lhs(rule, g.guard)) continue;
      std::vector<int> rising = rg.rising;
      std::sort(rising.begin(), rising.end());
      if (first) {
        common = rising;
        first = false;
      } else {
        std::vector<int> inter;
        std::set_intersection(common.begin(), common.end(), rising.begin(),
                              rising.end(), std::back_inserter(inter));
        common = std::move(inter);
      }
      if (common.empty()) break;
    }
    for (int h : common) {
      if (h != gi) g.must_follow.push_back(h);
    }
  }
  return table;
}

}  // namespace ctaver::schema
