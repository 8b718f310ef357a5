// Explicit-state semantics of the extended probabilistic counter system
// Sys(TAⁿ, PTAᶜ) for a *fixed* admissible parameter valuation (Sect. III-C).
//
// Configurations are counter vectors κ: L × rounds → ℕ and g: V × rounds → ℕ.
// Actions are (rule, round) pairs; probabilistic rules yield one outcome per
// positive-probability destination. The parametric checker (src/schema) is
// the main verification engine; this module cross-checks it on small
// instances and exhibits concrete attacks (the MMR14 end component).
//
// Fairness note: our automata are DAGs modulo zero-update self-loops (the
// canonical single-round form), so firing a self-loop never changes the
// configuration. Action enumeration therefore skips self-loops; terminal
// configurations are exactly the "terminal modulo self-loops" ones, and
// maximal finite paths coincide with the fair executions of Sect. III-D.
//
// One step table. The constructor compiles every (round, automaton, rule)
// into a Step whose locations, variables and rounds are resolved to *slots*
// of one flat layout — the κ slots (Config::kappa's order), then the g slots
// (Config::g's) — and whose guard thresholds are evaluated at the
// parameters. The table is the only source of the counter-system semantics:
// the Config operations below run on it, and so do StateGraph's packed rows
// and, through applicable/apply_outcome, counterexample replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ta/model.h"
#include "util/rational.h"

namespace ctaver::cs {

/// Counter-vector configuration (κ, g) for a fixed parameter valuation.
struct Config {
  /// Location counters, laid out round-major: process locations of round 0,
  /// coin locations of round 0, process locations of round 1, ...
  std::vector<int32_t> kappa;
  /// Variable values, round-major.
  std::vector<long long> g;

  bool operator==(const Config&) const = default;
};

/// Action α = (rule, round). `coin` selects the automaton.
struct Action {
  bool coin = false;
  ta::RuleId rule = -1;
  int round = 0;

  bool operator==(const Action&) const = default;
};

/// One probabilistic outcome of applying an action.
struct Outcome {
  Config config;
  util::Rational prob;
};

class ExplicitSystem {
 public:
  /// One action compiled for this parameter valuation: `action.rule` of one
  /// automaton fired in round `action.round`, every operand a slot.
  struct Step {
    /// coeff · row[slot], a guard's left-hand-side term.
    struct Term {
      std::uint32_t slot = 0;
      long long coeff = 0;
    };
    /// Σ lhs  REL  rhs, the threshold evaluated at the parameters.
    struct GuardRow {
      std::vector<Term> lhs;
      ta::GuardRel rel = ta::GuardRel::kGe;
      long long rhs = 0;
    };
    /// One outcome: the κ slot the process moves to, and its probability.
    struct Branch {
      std::uint32_t slot = 0;
      util::Rational prob;
    };
    /// A variable increment of the source round.
    struct Update {
      std::uint32_t slot = 0;
      long long delta = 0;
    };

    Action action;
    std::uint32_t from = 0;  // source κ slot
    std::vector<Branch> to;
    std::vector<GuardRow> guards;
    std::vector<Update> updates;  // non-zero only
    /// A zero-update self-loop: firing it never changes the configuration.
    bool self_loop = false;
    /// A round-switch out of the last modeled round: never applicable.
    bool truncated = false;

    /// Guard truth (c, k |= φ) on `row`, anything indexable by slot.
    template <class Row>
    [[nodiscard]] bool unlocked(const Row& row) const {
      for (const GuardRow& g : guards) {
        long long lhs = 0;
        for (const Term& t : g.lhs) {
          lhs += t.coeff * static_cast<long long>(row[t.slot]);
        }
        const bool ok = g.rel == ta::GuardRel::kGe ? lhs >= g.rhs : lhs < g.rhs;
        if (!ok) return false;
      }
      return true;
    }
    /// Applicable: modeled, some process at the source, and unlocked.
    template <class Row>
    [[nodiscard]] bool enabled(const Row& row) const {
      return !truncated && row[from] >= 1 && unlocked(row);
    }
    /// Fires outcome `i` as `add(slot, delta)` calls: the source loses a
    /// process, the outcome's target gains it, the updates apply.
    template <class Add>
    void fire(std::size_t i, Add&& add) const {
      add(from, -1);
      add(to[i].slot, 1);
      for (const Update& u : updates) add(u.slot, u.delta);
    }
  };

  /// `params` must be admissible for sys.env. `rounds` bounds the number of
  /// modeled rounds (>= 1); round-switch rules into rounds >= `rounds` are
  /// not applicable.
  ExplicitSystem(const ta::System& sys, std::vector<long long> params,
                 int rounds);

  [[nodiscard]] const ta::System& system() const { return *sys_; }
  [[nodiscard]] const std::vector<long long>& params() const { return params_; }
  [[nodiscard]] int rounds() const { return rounds_; }
  [[nodiscard]] long long num_processes() const { return num_processes_; }
  [[nodiscard]] long long num_coins() const { return num_coins_; }

  /// Index of a location in the combined per-round block.
  [[nodiscard]] int gloc(bool coin, ta::LocId l) const {
    return coin ? n_proc_locs_ + l : l;
  }
  [[nodiscard]] int locs_per_round() const { return n_proc_locs_ + n_coin_locs_; }

  [[nodiscard]] int32_t kappa(const Config& c, bool coin, ta::LocId l,
                              int round) const {
    return c.kappa[kappa_slot(coin, l, round)];
  }
  [[nodiscard]] long long var(const Config& c, ta::VarId v, int round) const {
    return c.g[static_cast<std::size_t>(
        round * static_cast<int>(sys_->vars.size()) + v)];
  }

  /// The flat layout: κ slots (round-major, as Config::kappa), then g
  /// slots (as Config::g).
  [[nodiscard]] std::uint32_t kappa_slot(bool coin, ta::LocId l,
                                         int round) const {
    return static_cast<std::uint32_t>(round * locs_per_round() +
                                      gloc(coin, l));
  }
  [[nodiscard]] std::size_t kappa_slots() const { return kappa_slots_; }
  [[nodiscard]] std::size_t slots() const { return slots_; }
  /// "loc@rK", "coin:loc@rK" or "var@rK", for diagnostics.
  [[nodiscard]] std::string slot_name(std::uint32_t slot) const;

  /// The step table, in applicable_actions' order: round-major, process
  /// rules before coin rules, rules by id.
  [[nodiscard]] const std::vector<Step>& steps() const { return steps_; }

  /// Guard truth in configuration c for round k (c, k |= φ).
  [[nodiscard]] bool unlocked(const Config& c, const Action& a) const;
  [[nodiscard]] bool applicable(const Config& c, const Action& a) const;

  /// All applicable actions across all rounds. Zero-update self-loops are
  /// skipped unless `include_self_loops` (they are configuration no-ops).
  [[nodiscard]] std::vector<Action> applicable_actions(
      const Config& c, bool include_self_loops = false) const;

  /// Applies an action; one Outcome per positive-probability destination.
  [[nodiscard]] std::vector<Outcome> apply(const Config& c,
                                           const Action& a) const;
  /// Applies a specific outcome branch (by index into the distribution).
  [[nodiscard]] Config apply_outcome(const Config& c, const Action& a,
                                     int outcome_index) const;

  /// All-zero configuration (no processes anywhere).
  [[nodiscard]] Config empty_config() const;

  /// Initial configurations of Sect. III-C: every split of the modeled
  /// processes over the process *initial* locations of round 0 and of the
  /// coins over the coin initial locations; all variables zero.
  [[nodiscard]] std::vector<Config> initial_configs() const;

  /// Round-entry configurations Σu for single-round systems (Thm. 2):
  /// every split over *border* locations instead.
  [[nodiscard]] std::vector<Config> border_start_configs() const;

  /// True iff no non-self-loop action is applicable (fair-terminal).
  [[nodiscard]] bool terminal(const Config& c) const {
    return applicable_actions(c).empty();
  }

  /// Pretty-printer for debugging and counterexample reports. An action
  /// outside the modeled rules and rounds, such as the rule -1 that ends
  /// every StateGraph::Witness, throws std::invalid_argument.
  [[nodiscard]] std::string describe(const Config& c) const;
  [[nodiscard]] std::string describe(const Action& a) const;

 private:
  [[nodiscard]] const ta::Automaton& automaton(bool coin) const {
    return coin ? sys_->coin : sys_->process;
  }
  /// Destination round of a rule fired in round k (round-switch rules into
  /// kBorder locations cross to k + 1; everything else stays).
  [[nodiscard]] int dest_round(bool coin, const ta::Rule& r, int from_round,
                               ta::LocId target) const;
  /// Shared implementation of initial_configs / border_start_configs.
  [[nodiscard]] std::vector<Config> start_configs_impl(ta::LocRole role) const;
  /// The step of `a`, or null when `a` names no modeled round or rule.
  [[nodiscard]] const Step* find_step(const Action& a) const;
  /// The step `apply`/`apply_outcome` fire; throws std::invalid_argument
  /// when `a` has none or is truncated.
  [[nodiscard]] const Step& fired_step(const Action& a) const;

  const ta::System* sys_;
  std::vector<long long> params_;
  int rounds_;
  int n_proc_locs_;
  int n_coin_locs_;
  std::size_t kappa_slots_ = 0;
  std::size_t slots_ = 0;
  long long num_processes_;
  long long num_coins_;
  std::vector<Step> steps_;
};

/// All ways to place `total` identical tokens into `bins` bins.
std::vector<std::vector<long long>> compositions(long long total, int bins);

}  // namespace ctaver::cs
