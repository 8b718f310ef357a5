// Reachable state graph of an explicit counter system, with the qualitative
// analyses the verification pipeline needs:
//
//   * plain reachability (counterexample search for safety specs),
//   * "some fair maximal path avoids T" (negation of almost-sure
//     reachability under all fair adversaries),
//   * the ∀-adversary ∃-outcomes safety game used for the probabilistic
//     conditions (C1)/(C2′) via Lemma 2,
//   * end-component detection witnessing non-termination (the MMR14
//     adaptive attack shows up as a reachable cyclic structure / a fair
//     maximal path that never decides).
//
// Our automata are DAGs modulo skipped self-loops, so the reachable graph is
// acyclic and all analyses are memoized DAG recursions; general fixpoint
// iteration is used anyway so that cyclic inputs degrade gracefully.
//
// Layout. Each reachable configuration is stored once, as a fixed-width row
// of 16-bit words in ExplicitSystem's slot layout (κ slots, then g slots),
// in one arena indexed by an open-addressing table of 32-bit ids; ids follow
// BFS order. A counter or variable outside [0, 65535] throws
// std::overflow_error naming the slot, never a wrapped count. Edges are
// compressed sparse rows: each state owns a range of 8-byte {step, first
// successor} records, and the successors of every outcome sit in one
// uint32_t array. An edge's action and probabilities are its Step's, so the
// step table stays the one source of the semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "cs/explicit_system.h"
#include "util/cancel.h"

namespace ctaver::cs {

class StateGraph {
 public:
  using Pred = std::function<bool(const Config&)>;
  /// A path as (state, action taken there) pairs; the last action has
  /// rule = -1.
  using Witness = std::vector<std::pair<std::size_t, Action>>;

  /// One applicable action of a state: the index of its step in
  /// ExplicitSystem::steps(), and where its outcomes' successor ids start.
  struct Edge {
    std::uint32_t step = 0;
    std::uint32_t first = 0;
  };

  /// Builds the reachable graph from `initials`. Throws std::runtime_error
  /// if more than `max_states` states are reached, and std::overflow_error
  /// if a counter or variable leaves [0, 65535]. If `cancel` is non-null
  /// the exploration polls it periodically and throws util::Cancelled once
  /// it reports cancellation — this is how the pipeline aborts in-flight
  /// sweep instances when the shared verification budget (flag or wall-clock
  /// deadline) is exhausted. All state is local to the instance, so
  /// concurrent StateGraph builds are independent.
  StateGraph(const ExplicitSystem& sys, const std::vector<Config>& initials,
             std::size_t max_states = 2'000'000,
             const util::CancelSource* cancel = nullptr);

  [[nodiscard]] const ExplicitSystem& system() const { return *sys_; }
  [[nodiscard]] std::size_t num_states() const {
    return edge_begin_.size() - 1;
  }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }
  /// State s's packed row: one word per slot of ExplicitSystem's layout.
  [[nodiscard]] std::span<const std::uint16_t> row(std::size_t s) const {
    return {rows_.data() + s * stride_, sys_->slots()};
  }
  [[nodiscard]] Config config(std::size_t s) const;
  [[nodiscard]] const std::vector<std::size_t>& initial_states() const {
    return initials_;
  }

  [[nodiscard]] std::span<const Edge> edges(std::size_t s) const {
    return {edges_.data() + edge_begin_[s],
            edges_.data() + edge_begin_[s + 1]};
  }
  [[nodiscard]] const Action& action(const Edge& e) const {
    return sys_->steps()[e.step].action;
  }
  /// One successor id per outcome of e's step, in outcome order.
  [[nodiscard]] std::span<const std::uint32_t> successors(
      const Edge& e) const {
    return {succ_.data() + e.first, sys_->steps()[e.step].to.size()};
  }
  [[nodiscard]] bool terminal(std::size_t s) const {
    return edge_begin_[s] == edge_begin_[s + 1];
  }

  /// States satisfying `pred`.
  [[nodiscard]] std::vector<bool> mark(const Pred& pred) const;

  /// Is some state satisfying `pred` reachable? If so and `witness` is
  /// non-null, fills it with a path from an initial state.
  [[nodiscard]] bool some_reachable(const Pred& pred,
                                    Witness* witness = nullptr) const;

  /// Two-phase reachability for A(Fφ → Gψ) counterexamples: a path that
  /// first reaches a φ-state and later (or at the same state) a ¬ψ-state.
  [[nodiscard]] bool eventually_then(const Pred& phi, const Pred& not_psi,
                                     Witness* witness = nullptr) const;

  /// True iff from state s some *maximal* path avoids `target` forever
  /// (i.e. P_min over fair adversaries of reaching `target` is < 1).
  /// Computed for all states at once.
  [[nodiscard]] std::vector<bool> can_avoid(
      const std::vector<bool>& target) const;

  /// Safety game for Lemma-2 conditions: from which states can the
  /// outcome-player guarantee that, however the adversary schedules
  /// applicable actions, some probabilistic resolution stays outside `bad`
  /// forever? (Terminal ¬bad states are winning.)
  [[nodiscard]] std::vector<bool> forall_adversary_exists_safe(
      const std::vector<bool>& bad) const;

 private:
  /// Compressed sparse rows over states: items[begin[t] .. begin[t + 1]).
  struct Csr {
    std::vector<std::uint32_t> begin;
    std::vector<std::uint32_t> items;
  };
  /// For every outcome of every edge, `item(state, edge index)` filed
  /// under the outcome's successor, in (state, edge, outcome) order.
  template <class Item>
  [[nodiscard]] Csr by_successor(Item item) const;
  /// Each state's predecessors, once per outcome into it.
  [[nodiscard]] Csr predecessors() const;
  /// BFS from `sources` to the first state satisfying `hit`, filling
  /// `witness` (if non-null) with the path to it.
  [[nodiscard]] bool search(const std::vector<std::size_t>& sources,
                            const std::function<bool(std::size_t)>& hit,
                            Witness* witness) const;

  const ExplicitSystem* sys_;
  /// Words per row in rows_: slots() rounded up to 8 bytes, zero-padded.
  std::size_t stride_;
  std::vector<std::uint16_t> rows_;
  std::vector<std::size_t> initials_;
  /// State s's edges are edges_[edge_begin_[s] .. edge_begin_[s + 1]).
  std::vector<std::uint32_t> edge_begin_;
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> succ_;
};

}  // namespace ctaver::cs
