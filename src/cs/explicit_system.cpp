#include "cs/explicit_system.h"

#include <sstream>
#include <stdexcept>

namespace ctaver::cs {

namespace {

constexpr const char* kUnmodeled =
    "ExplicitSystem: action outside the modeled rules and rounds";

/// A Config read through the flat slot layout: κ slots, then g slots.
struct ConfigRow {
  const Config& c;
  long long operator[](std::uint32_t slot) const {
    return slot < c.kappa.size() ? c.kappa[slot]
                                 : c.g[slot - c.kappa.size()];
  }
};

}  // namespace

ExplicitSystem::ExplicitSystem(const ta::System& sys,
                               std::vector<long long> params, int rounds)
    : sys_(&sys),
      params_(std::move(params)),
      rounds_(rounds),
      n_proc_locs_(static_cast<int>(sys.process.locations.size())),
      n_coin_locs_(static_cast<int>(sys.coin.locations.size())) {
  if (rounds_ < 1) throw std::invalid_argument("ExplicitSystem: rounds < 1");
  if (!sys.env.admissible(params_)) {
    throw std::invalid_argument(
        "ExplicitSystem: parameter valuation violates the resilience "
        "condition");
  }
  num_processes_ = sys.env.num_processes.eval(params_);
  num_coins_ = sys.env.num_coins.eval(params_);

  const int nvars = static_cast<int>(sys.vars.size());
  kappa_slots_ = static_cast<std::size_t>(rounds_ * locs_per_round());
  slots_ = kappa_slots_ + static_cast<std::size_t>(rounds_ * nvars);
  auto var_slot = [&](int round, ta::VarId v) {
    return static_cast<std::uint32_t>(kappa_slots_) +
           static_cast<std::uint32_t>(round * nvars + v);
  };
  for (int round = 0; round < rounds_; ++round) {
    for (bool coin : {false, true}) {
      const ta::Automaton& a = automaton(coin);
      for (ta::RuleId id = 0; id < static_cast<ta::RuleId>(a.rules.size());
           ++id) {
        const ta::Rule& r = a.rules[static_cast<std::size_t>(id)];
        Step st;
        st.action = {coin, id, round};
        st.from = kappa_slot(coin, r.from, round);
        for (const auto& [target, prob] : r.to.outcomes) {
          const int to_round = dest_round(coin, r, round, target);
          if (to_round >= rounds_) st.truncated = true;
          st.to.push_back({kappa_slot(coin, target, to_round), prob});
        }
        for (const ta::Guard& g : r.guards) {
          Step::GuardRow row;
          row.rel = g.rel;
          row.rhs = g.rhs.eval(params_);
          for (const auto& [v, b] : g.lhs) {
            row.lhs.push_back({var_slot(round, v), b});
          }
          st.guards.push_back(std::move(row));
        }
        for (ta::VarId v = 0; v < nvars; ++v) {
          if (long long u = r.update_of(v); u != 0) {
            st.updates.push_back({var_slot(round, v), u});
          }
        }
        st.self_loop = r.is_dirac() && r.to.dirac_target() == r.from &&
                       r.has_zero_update() && !r.is_round_switch;
        steps_.push_back(std::move(st));
      }
    }
  }
}

int ExplicitSystem::dest_round(bool coin, const ta::Rule& r, int from_round,
                               ta::LocId target) const {
  if (!r.is_round_switch) return from_round;
  const ta::Location& dst =
      automaton(coin).locations[static_cast<std::size_t>(target)];
  // In single-round systems (Def. 3) the S′ rules target border *copies*
  // and stay within the round.
  return dst.role == ta::LocRole::kBorder ? from_round + 1 : from_round;
}

const ExplicitSystem::Step* ExplicitSystem::find_step(const Action& a) const {
  const auto np = static_cast<ta::RuleId>(sys_->process.rules.size());
  const auto nc = static_cast<ta::RuleId>(sys_->coin.rules.size());
  if (a.round < 0 || a.round >= rounds_ || a.rule < 0 ||
      a.rule >= (a.coin ? nc : np)) {
    return nullptr;
  }
  return &steps_[static_cast<std::size_t>(a.round * (np + nc) +
                                          (a.coin ? np : 0) + a.rule)];
}

bool ExplicitSystem::unlocked(const Config& c, const Action& a) const {
  const Step* st = find_step(a);
  return st != nullptr && st->unlocked(ConfigRow{c});
}

bool ExplicitSystem::applicable(const Config& c, const Action& a) const {
  const Step* st = find_step(a);
  return st != nullptr && st->enabled(ConfigRow{c});
}

std::vector<Action> ExplicitSystem::applicable_actions(
    const Config& c, bool include_self_loops) const {
  std::vector<Action> out;
  for (const Step& st : steps_) {
    if (st.self_loop && !include_self_loops) continue;
    if (st.enabled(ConfigRow{c})) out.push_back(st.action);
  }
  return out;
}

const ExplicitSystem::Step& ExplicitSystem::fired_step(const Action& a) const {
  const Step* st = find_step(a);
  if (st == nullptr || st->truncated) {
    throw std::invalid_argument(kUnmodeled);
  }
  return *st;
}

Config ExplicitSystem::apply_outcome(const Config& c, const Action& a,
                                     int outcome_index) const {
  Config out = c;
  fired_step(a).fire(static_cast<std::size_t>(outcome_index),
                     [&out](std::uint32_t slot, long long delta) {
                       if (slot < out.kappa.size()) {
                         out.kappa[slot] += static_cast<int32_t>(delta);
                       } else {
                         out.g[slot - out.kappa.size()] += delta;
                       }
                     });
  return out;
}

std::vector<Outcome> ExplicitSystem::apply(const Config& c,
                                           const Action& a) const {
  std::vector<Outcome> out;
  const Step& st = fired_step(a);
  for (std::size_t i = 0; i < st.to.size(); ++i) {
    out.push_back({apply_outcome(c, a, static_cast<int>(i)), st.to[i].prob});
  }
  return out;
}

Config ExplicitSystem::empty_config() const {
  Config c;
  c.kappa.assign(static_cast<std::size_t>(rounds_ * locs_per_round()), 0);
  c.g.assign(static_cast<std::size_t>(rounds_) * sys_->vars.size(), 0);
  return c;
}

namespace {

void compose_rec(long long remaining, int bin, int bins,
                 std::vector<long long>& acc,
                 std::vector<std::vector<long long>>& out) {
  if (bin == bins - 1) {
    acc[static_cast<std::size_t>(bin)] = remaining;
    out.push_back(acc);
    return;
  }
  for (long long k = 0; k <= remaining; ++k) {
    acc[static_cast<std::size_t>(bin)] = k;
    compose_rec(remaining - k, bin + 1, bins, acc, out);
  }
}

}  // namespace

std::vector<std::vector<long long>> compositions(long long total, int bins) {
  std::vector<std::vector<long long>> out;
  if (bins == 0) {
    if (total == 0) out.push_back({});
    return out;
  }
  std::vector<long long> acc(static_cast<std::size_t>(bins), 0);
  compose_rec(total, 0, bins, acc, out);
  return out;
}

std::vector<Config> ExplicitSystem::start_configs_impl(
    ta::LocRole role) const {
  std::vector<ta::LocId> proc_locs = sys_->process.locs_with_role(role);
  std::vector<ta::LocId> coin_locs = sys_->coin.locs_with_role(role);
  if (num_coins_ > 0 && coin_locs.empty()) {
    throw std::logic_error(
        "ExplicitSystem: coins modeled but the coin automaton has no "
        "locations with the requested start role");
  }
  std::vector<Config> out;
  auto proc_splits =
      compositions(num_processes_, static_cast<int>(proc_locs.size()));
  auto coin_splits = num_coins_ > 0
                         ? compositions(num_coins_,
                                        static_cast<int>(coin_locs.size()))
                         : std::vector<std::vector<long long>>{{}};
  for (const auto& ps : proc_splits) {
    for (const auto& cs : coin_splits) {
      Config c = empty_config();
      for (std::size_t i = 0; i < proc_locs.size(); ++i) {
        c.kappa[static_cast<std::size_t>(gloc(false, proc_locs[i]))] =
            static_cast<int32_t>(ps[i]);
      }
      for (std::size_t i = 0; i < coin_locs.size() && i < cs.size(); ++i) {
        c.kappa[static_cast<std::size_t>(gloc(true, coin_locs[i]))] =
            static_cast<int32_t>(cs[i]);
      }
      out.push_back(std::move(c));
    }
  }
  return out;
}

std::vector<Config> ExplicitSystem::initial_configs() const {
  return start_configs_impl(ta::LocRole::kInitial);
}

std::vector<Config> ExplicitSystem::border_start_configs() const {
  return start_configs_impl(ta::LocRole::kBorder);
}

std::string ExplicitSystem::describe(const Config& c) const {
  std::ostringstream os;
  for (int round = 0; round < rounds_; ++round) {
    os << "[round " << round << "]";
    for (bool coin : {false, true}) {
      const ta::Automaton& a = automaton(coin);
      for (ta::LocId l = 0; l < static_cast<ta::LocId>(a.locations.size());
           ++l) {
        int32_t k = kappa(c, coin, l, round);
        if (k != 0) {
          os << " " << a.locations[static_cast<std::size_t>(l)].name << "="
             << k;
        }
      }
    }
    for (ta::VarId v = 0; v < static_cast<ta::VarId>(sys_->vars.size());
         ++v) {
      long long g = var(c, v, round);
      if (g != 0) {
        os << " " << sys_->vars[static_cast<std::size_t>(v)].name << "=" << g;
      }
    }
    if (round + 1 < rounds_) os << " ";
  }
  return os.str();
}

std::string ExplicitSystem::slot_name(std::uint32_t slot) const {
  if (slot < kappa_slots_) {
    const int round = static_cast<int>(slot) / locs_per_round();
    const int l = static_cast<int>(slot) % locs_per_round();
    const bool coin = l >= n_proc_locs_;
    const ta::Location& loc = automaton(coin).locations[
        static_cast<std::size_t>(coin ? l - n_proc_locs_ : l)];
    return (coin ? "coin:" : "") + loc.name + "@r" + std::to_string(round);
  }
  const std::size_t j = slot - kappa_slots_;
  return sys_->vars[j % sys_->vars.size()].name + "@r" +
         std::to_string(j / sys_->vars.size());
}

std::string ExplicitSystem::describe(const Action& a) const {
  if (find_step(a) == nullptr) throw std::invalid_argument(kUnmodeled);
  const ta::Rule& r =
      automaton(a.coin).rules[static_cast<std::size_t>(a.rule)];
  return (a.coin ? std::string("coin:") : std::string("")) + r.name + "@r" +
         std::to_string(a.round);
}

}  // namespace ctaver::cs
