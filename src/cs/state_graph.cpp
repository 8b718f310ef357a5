#include "cs/state_graph.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/stopwatch.h"

namespace ctaver::cs {

namespace {

constexpr std::uint32_t kNoState = 0xffffffffu;
constexpr long long kMaxWord = 0xffff;

/// Hash of one row, 8 bytes per round (rows are padded to 8 bytes).
std::uint64_t hash_row(const std::uint16_t* row, std::size_t stride) {
  std::uint64_t h = stride;
  for (std::size_t i = 0; i < stride; i += 4) {
    std::uint64_t w;
    std::memcpy(&w, row + i, sizeof w);
    h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
  }
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 31);
}

[[noreturn]] void out_of_range(const ExplicitSystem& sys, std::uint32_t slot,
                               long long value) {
  throw std::overflow_error("StateGraph: " + sys.slot_name(slot) + " = " +
                            std::to_string(value) +
                            " is outside the 16-bit state range [0, 65535]");
}

/// `v` as a row word, or overflow_error naming `slot`.
std::uint16_t word(const ExplicitSystem& sys, std::uint32_t slot,
                   long long v) {
  if (v < 0 || v > kMaxWord) out_of_range(sys, slot, v);
  return static_cast<std::uint16_t>(v);
}

}  // namespace

StateGraph::StateGraph(const ExplicitSystem& sys,
                       const std::vector<Config>& initials,
                       std::size_t max_states,
                       const util::CancelSource* cancel)
    : sys_(&sys), stride_((sys.slots() + 3) & ~std::size_t{3}) {
  obs::Span span("state_graph");
  const util::Stopwatch watch;
  const std::size_t cap = std::min<std::size_t>(max_states, kNoState);

  // Open-addressing index over the arena's rows: linear probing on 32-bit
  // ids, doubled whenever it is half full.
  std::vector<std::uint32_t> table(1024, kNoState);
  std::size_t n = 0;
  auto probe = [&](const std::uint16_t* r, std::size_t mask) {
    std::size_t i = hash_row(r, stride_) & mask;
    while (table[i] != kNoState &&
           std::memcmp(&rows_[table[i] * stride_], r, stride_ * 2) != 0) {
      i = (i + 1) & mask;
    }
    return i;
  };
  auto intern = [&](const std::uint16_t* r) -> std::uint32_t {
    std::size_t i = probe(r, table.size() - 1);
    if (table[i] != kNoState) return table[i];
    if (n >= cap) throw std::runtime_error("StateGraph: state budget exceeded");
    const auto id = static_cast<std::uint32_t>(n++);
    table[i] = id;
    rows_.insert(rows_.end(), r, r + stride_);
    if (2 * n > table.size()) {
      table.assign(table.size() * 2, kNoState);
      for (std::uint32_t k = 0; k < n; ++k) {
        table[probe(&rows_[k * stride_], table.size() - 1)] = k;
      }
    }
    return id;
  };

  // Fault point at BFS entry (fires for every graph, however small) and at
  // the same 1/1024 throttle as the cancellation poll below.
  util::fault_point("cs.expand");

  std::vector<std::uint16_t> src(stride_, 0), dst(stride_, 0);
  const std::size_t nk = sys.kappa_slots();
  for (const Config& c : initials) {
    for (std::size_t j = 0; j < nk; ++j) {
      dst[j] = word(sys, static_cast<std::uint32_t>(j), c.kappa[j]);
    }
    for (std::size_t j = 0; j < c.g.size(); ++j) {
      dst[nk + j] = word(sys, static_cast<std::uint32_t>(nk + j), c.g[j]);
    }
    initials_.push_back(intern(dst.data()));
  }

  // The steps a BFS expansion tries: self-loops are configuration no-ops
  // and truncated steps never fire.
  const std::vector<ExplicitSystem::Step>& steps = sys.steps();
  std::vector<std::uint32_t> live;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    if (!steps[k].self_loop && !steps[k].truncated) {
      live.push_back(static_cast<std::uint32_t>(k));
    }
  }

  // Ids are handed out in discovery order, so expanding ids in increasing
  // order is the BFS and each state's edges are appended contiguously.
  for (std::size_t s = 0; s < n; ++s) {
    if (((s + 1) & 0x3ff) == 0) {
      util::fault_point("cs.expand");
      if (cancel != nullptr) cancel->check();
    }
    edge_begin_.push_back(static_cast<std::uint32_t>(edges_.size()));
    std::copy_n(&rows_[s * stride_], stride_, src.begin());
    for (std::uint32_t k : live) {
      const ExplicitSystem::Step& st = steps[k];
      if (!st.enabled(src.data())) continue;
      edges_.push_back({k, static_cast<std::uint32_t>(succ_.size())});
      for (std::size_t i = 0; i < st.to.size(); ++i) {
        dst = src;
        st.fire(i, [&](std::uint32_t slot, long long delta) {
          dst[slot] = word(sys, slot, dst[slot] + delta);
        });
        succ_.push_back(intern(dst.data()));
      }
    }
    if (succ_.size() >= kNoState) {
      throw std::overflow_error("StateGraph: more than 2^32 - 1 successors");
    }
  }
  edge_begin_.push_back(static_cast<std::uint32_t>(edges_.size()));

  obs::add(obs::Counter::kCsGraphs);
  obs::add(obs::Counter::kCsStates, n);
  obs::add(obs::Counter::kCsEdges, edges_.size());
  obs::add(obs::Counter::kCsMicros,
           static_cast<std::uint64_t>(watch.seconds() * 1e6));
  if (span.active()) {
    span.args("\"states\":" + std::to_string(n) +
              ",\"edges\":" + std::to_string(edges_.size()));
  }
}

Config StateGraph::config(std::size_t s) const {
  Config c = sys_->empty_config();
  const std::span<const std::uint16_t> r = row(s);
  const std::size_t nk = c.kappa.size();
  for (std::size_t j = 0; j < nk; ++j) c.kappa[j] = r[j];
  for (std::size_t j = 0; j < c.g.size(); ++j) c.g[j] = r[nk + j];
  return c;
}

std::vector<bool> StateGraph::mark(const Pred& pred) const {
  std::vector<bool> out(num_states());
  for (std::size_t s = 0; s < num_states(); ++s) out[s] = pred(config(s));
  return out;
}

template <class Item>
StateGraph::Csr StateGraph::by_successor(Item item) const {
  const std::size_t n = num_states();
  Csr out;
  out.begin.assign(n + 1, 0);
  for (std::uint32_t t : succ_) ++out.begin[t + 1];
  for (std::size_t i = 0; i < n; ++i) out.begin[i + 1] += out.begin[i];
  out.items.resize(succ_.size());
  std::vector<std::uint32_t> fill(out.begin.begin(), out.begin.end() - 1);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::uint32_t e = edge_begin_[s]; e < edge_begin_[s + 1]; ++e) {
      for (std::uint32_t t : successors(edges_[e])) {
        out.items[fill[t]++] = item(static_cast<std::uint32_t>(s), e);
      }
    }
  }
  return out;
}

StateGraph::Csr StateGraph::predecessors() const {
  return by_successor([](std::uint32_t s, std::uint32_t) { return s; });
}

bool StateGraph::search(const std::vector<std::size_t>& sources,
                        const std::function<bool(std::size_t)>& hit,
                        Witness* witness) const {
  std::vector<std::int64_t> parent(num_states(), -2);  // -2 unseen, -1 root
  std::vector<Action> via(num_states());
  std::vector<std::size_t> queue;
  for (std::size_t s : sources) {
    if (parent[s] == -2) {
      parent[s] = -1;
      queue.push_back(s);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t s = queue[head];
    if (hit(s)) {
      if (witness != nullptr) {
        Witness rev;
        std::size_t cur = s;
        rev.emplace_back(cur, Action{});
        while (parent[cur] >= 0) {
          const auto p = static_cast<std::size_t>(parent[cur]);
          rev.emplace_back(p, via[cur]);
          cur = p;
        }
        witness->assign(rev.rbegin(), rev.rend());
      }
      return true;
    }
    for (const Edge& e : edges(s)) {
      for (std::uint32_t succ : successors(e)) {
        if (parent[succ] == -2) {
          parent[succ] = static_cast<std::int64_t>(s);
          via[succ] = action(e);
          queue.push_back(succ);
        }
      }
    }
  }
  return false;
}

bool StateGraph::some_reachable(const Pred& pred, Witness* witness) const {
  // Every interned state is reachable by construction, so this is mostly
  // about producing a witness path.
  return search(
      initials_, [&](std::size_t s) { return pred(config(s)); }, witness);
}

namespace {

/// Backward closure of `seeds` over a predecessor CSR.
template <class Csr>
std::vector<bool> backward_closure(const Csr& preds, std::vector<bool> in) {
  std::vector<std::size_t> queue;
  for (std::size_t s = 0; s < in.size(); ++s) {
    if (in[s]) queue.push_back(s);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t s = queue[head];
    for (std::uint32_t i = preds.begin[s]; i < preds.begin[s + 1]; ++i) {
      const std::uint32_t p = preds.items[i];
      if (!in[p]) {
        in[p] = true;
        queue.push_back(p);
      }
    }
  }
  return in;
}

}  // namespace

bool StateGraph::eventually_then(const Pred& phi, const Pred& not_psi,
                                 Witness* witness) const {
  // Every interned state is reachable from the initials, so a witness mid
  // state exists iff some state satisfies phi and can still reach a
  // ¬psi-state (backward closure over the edge relation).
  const std::vector<bool> can_reach_bad =
      backward_closure(predecessors(), mark(not_psi));
  std::size_t mid = num_states();
  for (std::size_t s = 0; s < num_states(); ++s) {
    if (can_reach_bad[s] && phi(config(s))) {
      mid = s;
      break;
    }
  }
  if (mid == num_states()) return false;
  if (witness != nullptr) {
    // Initial -> mid, then mid -> a ¬psi-state; mid's entry takes the
    // second leg's first action.
    Witness leg1, leg2;
    (void)search(
        initials_, [mid](std::size_t s) { return s == mid; }, &leg1);
    (void)search(
        {mid}, [&](std::size_t s) { return not_psi(config(s)); }, &leg2);
    leg1.pop_back();
    leg1.insert(leg1.end(), leg2.begin(), leg2.end());
    *witness = std::move(leg1);
  }
  return true;
}

std::vector<bool> StateGraph::can_avoid(
    const std::vector<bool>& target) const {
  // Least fixpoint of: s not in target and (terminal or some action-outcome
  // successor can avoid), computed with a backward worklist. On DAGs this is
  // exact; on cyclic graphs the closing phase below additionally reports
  // cycles of ¬target states as avoiding, which matches unfair-loop
  // semantics and is conservative for us.
  const std::size_t n = num_states();
  const Csr preds = predecessors();
  std::vector<bool> avoid(n, false);
  std::vector<std::size_t> work;
  for (std::size_t s = 0; s < n; ++s) {
    if (!target[s] && terminal(s)) {
      avoid[s] = true;
      work.push_back(s);
    }
  }
  for (std::size_t head = 0; head < work.size(); ++head) {
    const std::size_t u = work[head];
    for (std::uint32_t i = preds.begin[u]; i < preds.begin[u + 1]; ++i) {
      const std::uint32_t s = preds.items[i];
      if (avoid[s] || target[s]) continue;
      avoid[s] = true;
      work.push_back(s);
    }
  }
  // Cyclic remainder: states in ¬target whose every extension stays among
  // undecided states forever form unfair loops; detect states that cannot
  // reach target at all and cannot reach a terminal — they avoid trivially.
  // (DAG graphs never hit this case.)
  const std::vector<bool> reach_target = backward_closure(preds, target);
  for (std::size_t s = 0; s < n; ++s) {
    if (!target[s] && !reach_target[s]) avoid[s] = true;
  }
  return avoid;
}

std::vector<bool> StateGraph::forall_adversary_exists_safe(
    const std::vector<bool>& bad) const {
  // Greatest fixpoint W = {s : ¬bad(s) ∧ ∀ edges e at s ∃ outcome in W},
  // computed by counting winning outcomes per edge and propagating losses
  // backward through a worklist (linear in the transition relation).
  const std::size_t n = num_states();
  std::vector<bool> win(n);
  // Per edge: its source state and its outcomes still winning.
  std::vector<std::uint32_t> owner(edges_.size());
  std::vector<std::uint32_t> left(edges_.size());
  std::vector<std::size_t> losses;
  for (std::size_t s = 0; s < n; ++s) {
    win[s] = !bad[s];
    for (std::uint32_t e = edge_begin_[s]; e < edge_begin_[s + 1]; ++e) {
      owner[e] = static_cast<std::uint32_t>(s);
      left[e] = static_cast<std::uint32_t>(successors(edges_[e]).size());
    }
    if (bad[s]) losses.push_back(s);
  }
  // successor -> every edge with an outcome into it.
  const Csr watchers =
      by_successor([](std::uint32_t, std::uint32_t e) { return e; });
  for (std::size_t head = 0; head < losses.size(); ++head) {
    const std::size_t u = losses[head];
    for (std::uint32_t i = watchers.begin[u]; i < watchers.begin[u + 1];
         ++i) {
      const std::uint32_t e = watchers.items[i];
      const std::uint32_t s = owner[e];
      if (!win[s]) continue;
      if (--left[e] == 0) {
        // Edge e at s has no winning outcome left: the adversary plays it.
        win[s] = false;
        losses.push_back(s);
      }
    }
  }
  return win;
}

}  // namespace ctaver::cs
