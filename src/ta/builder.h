// Fluent construction of System models (environment + TAⁿ + PTAᶜ).
//
// The .cta lowering (frontend/lower.cpp) replays every spec through this
// builder, and tests build small models with it directly; the calls read
// close to the paper's figures:
//
//   SystemBuilder b("NaiveVoting");
//   auto n = b.param("n"), f = b.param("f");
//   b.require(b.P(n) - b.P(f) * 3, CmpOp::kGt);        // n > 3f
//   b.model_counts(b.P(n) - b.P(f), ParamExpr::constant_expr(1));
//   VarId v0 = b.shared("v0");
//   LocId i0 = b.initial("I0", 0), s = b.internal("S");
//   b.rule("r1", i0, s, {}, {{v0, 1}});
//   System sys = b.build();
#pragma once

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "ta/model.h"

namespace ctaver::ta {

class SystemBuilder {
 public:
  explicit SystemBuilder(std::string name);

  // --- Environment -------------------------------------------------------
  ParamId param(const std::string& name);
  /// ParamExpr for a declared parameter.
  [[nodiscard]] ParamExpr P(ParamId p) const { return ParamExpr::param(p); }
  [[nodiscard]] ParamExpr P(const std::string& name) const;
  static ParamExpr K(long long k) { return ParamExpr::constant_expr(k); }

  /// Adds a resilience conjunct `expr OP 0`.
  void require(ParamExpr expr, CmpOp op);
  /// Sets N: numbers of modeled processes and coins.
  void model_counts(ParamExpr processes, ParamExpr coins);

  // --- Variables ----------------------------------------------------------
  VarId shared(const std::string& name);
  VarId coin_var(const std::string& name);

  // --- Process locations --------------------------------------------------
  LocId border(const std::string& name, int value);
  LocId initial(const std::string& name, int value);
  LocId internal(const std::string& name);
  LocId final_loc(const std::string& name, int value, bool decision = false);

  // --- Coin locations -----------------------------------------------------
  LocId coin_border(const std::string& name);
  LocId coin_initial(const std::string& name);
  LocId coin_internal(const std::string& name);
  LocId coin_final(const std::string& name, int value = -1);

  // --- Guards -------------------------------------------------------------
  /// Σ coeff·var >= rhs.
  [[nodiscard]] Guard ge(
      std::initializer_list<std::pair<VarId, long long>> lhs,
      ParamExpr rhs) const;
  /// Single-variable form.
  [[nodiscard]] Guard ge(VarId v, ParamExpr rhs) const {
    return ge({{v, 1LL}}, std::move(rhs));
  }
  /// Coin-outcome guard cc_v > 0.
  [[nodiscard]] Guard coin_is(VarId cc) const { return Guard::coin_is(cc); }

  // --- Process rules ------------------------------------------------------
  /// Dirac process rule with sparse updates.
  RuleId rule(const std::string& name, LocId from, LocId to,
              std::vector<Guard> guards,
              std::vector<std::pair<VarId, long long>> updates = {});
  /// B -> I entry rule (true guard, zero update).
  RuleId border_entry(LocId from_border, LocId to_initial);
  /// F -> B round-switch rule (member of S).
  RuleId round_switch(LocId from_final, LocId to_border);

  // --- Coin rules ---------------------------------------------------------
  RuleId coin_rule(const std::string& name, LocId from, LocId to,
                   std::vector<Guard> guards,
                   std::vector<std::pair<VarId, long long>> updates = {});
  /// Probabilistic coin rule (e.g. the 1/2-1/2 toss rb of Fig. 4b).
  RuleId coin_prob_rule(const std::string& name, LocId from, Distribution to,
                        std::vector<Guard> guards,
                        std::vector<std::pair<VarId, long long>> updates = {});
  RuleId coin_round_switch(LocId from_final, LocId to_border);
  RuleId coin_border_entry(LocId from_border, LocId to_initial);

  /// Finalizes and validates the system (throws std::invalid_argument with
  /// the full error list on malformed models).
  [[nodiscard]] System build() const;

  /// Access to the partially built system (used by tests).
  [[nodiscard]] const System& peek() const { return sys_; }

 private:
  std::vector<long long> dense_update(
      const std::vector<std::pair<VarId, long long>>& updates) const;

  System sys_;
};

}  // namespace ctaver::ta
