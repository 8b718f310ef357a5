#include "ta/builder.h"

#include <stdexcept>

#include "ta/validate.h"

namespace ctaver::ta {

SystemBuilder::SystemBuilder(std::string name) { sys_.name = std::move(name); }

ParamId SystemBuilder::param(const std::string& name) {
  sys_.env.params.push_back({name});
  return static_cast<ParamId>(sys_.env.params.size() - 1);
}

ParamExpr SystemBuilder::P(const std::string& name) const {
  return ParamExpr::param(sys_.env.find_param(name));
}

void SystemBuilder::require(ParamExpr expr, CmpOp op) {
  sys_.env.resilience.push_back({std::move(expr), op});
}

void SystemBuilder::model_counts(ParamExpr processes, ParamExpr coins) {
  sys_.env.num_processes = std::move(processes);
  sys_.env.num_coins = std::move(coins);
}

VarId SystemBuilder::shared(const std::string& name) {
  sys_.vars.push_back({name, VarKind::kShared});
  return static_cast<VarId>(sys_.vars.size() - 1);
}

VarId SystemBuilder::coin_var(const std::string& name) {
  sys_.vars.push_back({name, VarKind::kCoin});
  return static_cast<VarId>(sys_.vars.size() - 1);
}

namespace {
LocId push_loc(Automaton& a, Location loc) {
  a.locations.push_back(std::move(loc));
  return static_cast<LocId>(a.locations.size() - 1);
}
}  // namespace

LocId SystemBuilder::border(const std::string& name, int value) {
  return push_loc(sys_.process, {name, LocRole::kBorder, value, false});
}
LocId SystemBuilder::initial(const std::string& name, int value) {
  return push_loc(sys_.process, {name, LocRole::kInitial, value, false});
}
LocId SystemBuilder::internal(const std::string& name) {
  return push_loc(sys_.process, {name, LocRole::kInternal, -1, false});
}
LocId SystemBuilder::final_loc(const std::string& name, int value,
                               bool decision) {
  return push_loc(sys_.process, {name, LocRole::kFinal, value, decision});
}

LocId SystemBuilder::coin_border(const std::string& name) {
  return push_loc(sys_.coin, {name, LocRole::kBorder, -1, false});
}
LocId SystemBuilder::coin_initial(const std::string& name) {
  return push_loc(sys_.coin, {name, LocRole::kInitial, -1, false});
}
LocId SystemBuilder::coin_internal(const std::string& name) {
  return push_loc(sys_.coin, {name, LocRole::kInternal, -1, false});
}
LocId SystemBuilder::coin_final(const std::string& name, int value) {
  return push_loc(sys_.coin, {name, LocRole::kFinal, value, false});
}

Guard SystemBuilder::ge(
    std::initializer_list<std::pair<VarId, long long>> lhs,
    ParamExpr rhs) const {
  Guard g;
  g.lhs.assign(lhs.begin(), lhs.end());
  g.rel = GuardRel::kGe;
  g.rhs = std::move(rhs);
  return g;
}

std::vector<long long> SystemBuilder::dense_update(
    const std::vector<std::pair<VarId, long long>>& updates) const {
  std::vector<long long> u(sys_.vars.size(), 0);
  for (const auto& [v, inc] : updates) {
    if (v < 0 || v >= static_cast<VarId>(sys_.vars.size())) {
      throw std::out_of_range("SystemBuilder: update on unknown variable");
    }
    u[static_cast<std::size_t>(v)] += inc;
  }
  return u;
}

RuleId SystemBuilder::rule(const std::string& name, LocId from, LocId to,
                           std::vector<Guard> guards,
                           std::vector<std::pair<VarId, long long>> updates) {
  Rule r{name, from, Distribution::dirac(to), std::move(guards),
         dense_update(updates), false};
  sys_.process.rules.push_back(std::move(r));
  return static_cast<RuleId>(sys_.process.rules.size() - 1);
}

RuleId SystemBuilder::border_entry(LocId from_border, LocId to_initial) {
  const auto& a = sys_.process.locations;
  std::string name = "enter_" + a[static_cast<std::size_t>(to_initial)].name;
  return rule(name, from_border, to_initial, {}, {});
}

RuleId SystemBuilder::round_switch(LocId from_final, LocId to_border) {
  const auto& a = sys_.process.locations;
  Rule r{"switch_" + a[static_cast<std::size_t>(from_final)].name, from_final,
         Distribution::dirac(to_border),
         {},
         std::vector<long long>(sys_.vars.size(), 0),
         true};
  sys_.process.rules.push_back(std::move(r));
  return static_cast<RuleId>(sys_.process.rules.size() - 1);
}

RuleId SystemBuilder::coin_rule(
    const std::string& name, LocId from, LocId to, std::vector<Guard> guards,
    std::vector<std::pair<VarId, long long>> updates) {
  return coin_prob_rule(name, from, Distribution::dirac(to), std::move(guards),
                        std::move(updates));
}

RuleId SystemBuilder::coin_prob_rule(
    const std::string& name, LocId from, Distribution to,
    std::vector<Guard> guards,
    std::vector<std::pair<VarId, long long>> updates) {
  Rule r{name, from, std::move(to), std::move(guards), dense_update(updates),
         false};
  sys_.coin.rules.push_back(std::move(r));
  return static_cast<RuleId>(sys_.coin.rules.size() - 1);
}

RuleId SystemBuilder::coin_round_switch(LocId from_final, LocId to_border) {
  const auto& a = sys_.coin.locations;
  Rule r{"switch_" + a[static_cast<std::size_t>(from_final)].name, from_final,
         Distribution::dirac(to_border),
         {},
         std::vector<long long>(sys_.vars.size(), 0),
         true};
  sys_.coin.rules.push_back(std::move(r));
  return static_cast<RuleId>(sys_.coin.rules.size() - 1);
}

RuleId SystemBuilder::coin_border_entry(LocId from_border, LocId to_initial) {
  const auto& a = sys_.coin.locations;
  std::string name = "enter_" + a[static_cast<std::size_t>(to_initial)].name;
  return coin_rule(name, from_border, to_initial, {}, {});
}

System SystemBuilder::build() const {
  System out = sys_;
  out.coin.kind = Automaton::Kind::kCoin;
  // Updates may have been built before all variables were declared; pad.
  for (Automaton* a : {&out.process, &out.coin}) {
    for (Rule& r : a->rules) r.update.resize(out.vars.size(), 0);
  }
  validate_or_throw(out);
  return out;
}

}  // namespace ctaver::ta
