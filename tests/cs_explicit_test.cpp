// Tests for the explicit counter-system semantics: action application,
// initial configurations, state-graph analyses, the packed state graph
// against the Config semantics (pinned sweep graph sizes, the 16-bit
// range, the sweep counters), and the Theorem-1 round-rigid reordering on
// randomized schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "cs/explicit_system.h"
#include "cs/schedule.h"
#include "cs/state_graph.h"
#include "frontend/lower.h"
#include "frontend/registry.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ta/builder.h"
#include "ta/transforms.h"
#include "verify/pipeline.h"

namespace ctaver::cs {
namespace {

using ta::LocId;
using ta::ParamId;
using ta::SystemBuilder;
using ta::VarId;

// Naive voting (Fig. 2/3): agreement breaks exactly when f >= 1. Each
// vote adds `vote` to its variable.
ta::System naive_voting(long long vote = 1) {
  SystemBuilder b("NaiveVoting");
  ParamId n = b.param("n");
  ParamId f = b.param("f");
  b.require(b.P(n) - b.P(f) * 2, ta::CmpOp::kGt);
  b.require(b.P(f), ta::CmpOp::kGe);
  b.model_counts(b.P(n) - b.P(f), SystemBuilder::K(0));
  VarId v0 = b.shared("v0");
  VarId v1 = b.shared("v1");
  LocId j0 = b.border("J0", 0), j1 = b.border("J1", 1);
  LocId i0 = b.initial("I0", 0), i1 = b.initial("I1", 1);
  LocId s = b.internal("S");
  LocId d0 = b.final_loc("D0", 0, true), d1 = b.final_loc("D1", 1, true);
  b.border_entry(j0, i0);
  b.border_entry(j1, i1);
  b.rule("r1", i0, s, {}, {{v0, vote}});
  b.rule("r2", i1, s, {}, {{v1, vote}});
  b.rule("r3", s, d0, {b.ge({{v0, 2}}, b.P("n") - b.P("f") * 2 + b.K(1))});
  b.rule("r4", s, d1, {b.ge({{v1, 2}}, b.P("n") - b.P("f") * 2 + b.K(1))});
  b.round_switch(d0, j0);
  b.round_switch(d1, j1);
  return b.build();
}

// Coin-adoption system from ta_model_test: every process adopts the coin.
ta::System mini_coin_system() {
  SystemBuilder b("MiniCoin");
  ParamId n = b.param("n");
  ParamId f = b.param("f");
  b.require(b.P(n) - b.P(f) * 3, ta::CmpOp::kGt);
  b.model_counts(b.P(n) - b.P(f), SystemBuilder::K(1));
  VarId cc0 = b.coin_var("cc0");
  VarId cc1 = b.coin_var("cc1");
  LocId j0 = b.border("J0", 0), j1 = b.border("J1", 1);
  LocId i0 = b.initial("I0", 0), i1 = b.initial("I1", 1);
  LocId e0 = b.final_loc("E0", 0), e1 = b.final_loc("E1", 1);
  b.border_entry(j0, i0);
  b.border_entry(j1, i1);
  b.rule("adopt0_from0", i0, e0, {b.coin_is(cc0)});
  b.rule("adopt1_from0", i0, e1, {b.coin_is(cc1)});
  b.rule("adopt0_from1", i1, e0, {b.coin_is(cc0)});
  b.rule("adopt1_from1", i1, e1, {b.coin_is(cc1)});
  b.round_switch(e0, j0);
  b.round_switch(e1, j1);
  LocId j2 = b.coin_border("J2");
  LocId i2 = b.coin_initial("I2");
  LocId n0 = b.coin_internal("N0");
  LocId n1 = b.coin_internal("N1");
  LocId c0 = b.coin_final("C0", 0);
  LocId c1 = b.coin_final("C1", 1);
  b.coin_border_entry(j2, i2);
  b.coin_prob_rule("rb", i2, ta::Distribution::uniform2(n0, n1), {});
  b.coin_rule("rc", n0, c0, {}, {{cc0, 1}});
  b.coin_rule("rd", n1, c1, {}, {{cc1, 1}});
  b.coin_round_switch(c0, j2);
  b.coin_round_switch(c1, j2);
  return b.build();
}

TEST(ExplicitSystem, RejectsInadmissibleParams) {
  ta::System sys = naive_voting();
  EXPECT_THROW(ExplicitSystem(sys, {4, 2}, 1), std::invalid_argument);
  EXPECT_THROW(ExplicitSystem(sys, {4, 1}, 0), std::invalid_argument);
  EXPECT_NO_THROW(ExplicitSystem(sys, {4, 1}, 1));
}

TEST(ExplicitSystem, InitialConfigsEnumerateSplits) {
  ta::System sys = naive_voting();
  ExplicitSystem es(sys, {4, 1}, 1);  // 3 correct processes, 2 initial locs
  EXPECT_EQ(es.num_processes(), 3);
  EXPECT_EQ(es.num_coins(), 0);
  // Splits of 3 over {I0, I1}: 4 configurations.
  EXPECT_EQ(es.initial_configs().size(), 4u);
  // Splits over borders {J0, J1}: likewise 4.
  EXPECT_EQ(es.border_start_configs().size(), 4u);
}

TEST(ExplicitSystem, CoinSplitsMultiply) {
  ta::System sys = mini_coin_system();
  ExplicitSystem es(sys, {4, 1}, 1);  // 3 processes, 1 coin, 1 coin initial
  EXPECT_EQ(es.num_coins(), 1);
  EXPECT_EQ(es.initial_configs().size(), 4u);  // coin always at I2
}

TEST(ExplicitSystem, ApplyMovesCountersAndVariables) {
  ta::System sys = naive_voting();
  ExplicitSystem es(sys, {4, 1}, 1);
  Config c = es.initial_configs()[0];  // some split; find all-at-I0 config
  for (const Config& cand : es.initial_configs()) {
    if (es.kappa(cand, false, sys.process.find_loc("I0"), 0) == 3) c = cand;
  }
  Action r1{false, sys.process.find_rule("r1"), 0};
  ASSERT_TRUE(es.applicable(c, r1));
  Config c2 = es.apply_outcome(c, r1, 0);
  EXPECT_EQ(es.kappa(c2, false, sys.process.find_loc("I0"), 0), 2);
  EXPECT_EQ(es.kappa(c2, false, sys.process.find_loc("S"), 0), 1);
  EXPECT_EQ(es.var(c2, sys.find_var("v0"), 0), 1);
  // r3 needs 2*v0 >= n+1-2f = 3, i.e. v0 >= 2: locked after one send.
  Action r3{false, sys.process.find_rule("r3"), 0};
  EXPECT_FALSE(es.applicable(c2, r3));
  Config c3 = es.apply_outcome(c2, r1, 0);
  EXPECT_TRUE(es.applicable(c3, r3));
}

TEST(ExplicitSystem, RoundSwitchCrossesRounds) {
  ta::System sys = naive_voting();
  ExplicitSystem es(sys, {4, 0}, 2);
  // Drive one process to D0 with f=0: need 2*v0 >= 5, v0 >= 3 (yes, /2
  // rounded: 2*v0 >= n+1 = 5 -> v0 >= 3).
  Config c = es.empty_config();
  c.kappa[static_cast<std::size_t>(
      es.gloc(false, sys.process.find_loc("D0")))] = 1;
  Action sw{false, sys.process.find_rule("switch_D0"), 0};
  ASSERT_TRUE(es.applicable(c, sw));
  Config c2 = es.apply_outcome(c, sw, 0);
  EXPECT_EQ(es.kappa(c2, false, sys.process.find_loc("D0"), 0), 0);
  EXPECT_EQ(es.kappa(c2, false, sys.process.find_loc("J0"), 1), 1);
  // In a 1-round system the switch is truncated.
  ExplicitSystem es1(sys, {4, 0}, 1);
  EXPECT_FALSE(es1.applicable(c, sw));
}

TEST(ExplicitSystem, SelfLoopsAreSkipped) {
  ta::System rd = ta::single_round(naive_voting());
  ExplicitSystem es(rd, {4, 1}, 1);
  // A config with everyone at a border copy must be terminal.
  Config c = es.empty_config();
  c.kappa[static_cast<std::size_t>(
      es.gloc(false, rd.process.find_loc("J0'")))] = 3;
  EXPECT_TRUE(es.terminal(c));
  EXPECT_TRUE(es.applicable_actions(c, /*include_self_loops=*/true).size() >
              0u);
}

TEST(ExplicitSystem, ProbabilisticRuleHasTwoOutcomes) {
  ta::System sys = mini_coin_system();
  ExplicitSystem es(sys, {4, 1}, 1);
  Config c = es.empty_config();
  c.kappa[static_cast<std::size_t>(es.gloc(true, sys.coin.find_loc("I2")))] =
      1;
  Action toss{true, sys.coin.find_rule("rb"), 0};
  ASSERT_TRUE(es.applicable(c, toss));
  auto outcomes = es.apply(c, toss);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].prob, util::Rational(1, 2));
  EXPECT_EQ(outcomes[1].prob, util::Rational(1, 2));
}

// ---------------------------------------------------------------------------
// State-graph analyses on the single-round naive voting system.
// ---------------------------------------------------------------------------

struct Reached {
  const ExplicitSystem* es;
  LocId loc;
  bool coin = false;
  bool operator()(const Config& c) const {
    return es->kappa(c, coin, loc, 0) > 0;
  }
};

TEST(StateGraph, NaiveVotingAgreementCEWithByzantine) {
  ta::System rd = ta::single_round(naive_voting());
  ExplicitSystem es(rd, {5, 2}, 1);  // n=5, f=2: 3 correct, thresholds 2*v>=2
  StateGraph g(es, es.border_start_configs());
  LocId d0 = rd.process.find_loc("D0");
  LocId d1 = rd.process.find_loc("D1");
  // Byzantine votes let both D0 and D1 be entered: the agreement round
  // invariant (Inv1) fails.
  bool ce = g.eventually_then(Reached{&es, d0},
                              [&](const Config& c) {
                                return es.kappa(c, false, d1, 0) > 0;
                              });
  EXPECT_TRUE(ce);
}

TEST(StateGraph, EventuallyThenWitnessIsAPath) {
  // The witness runs from an initial state through a D0-state to a
  // D1-state; every entry but the last names the action taken there, and
  // one of that action's outcomes is the next entry's state.
  ta::System rd = ta::single_round(naive_voting());
  ExplicitSystem es(rd, {5, 2}, 1);
  StateGraph g(es, es.border_start_configs());
  const Reached at_d0{&es, rd.process.find_loc("D0")};
  const Reached at_d1{&es, rd.process.find_loc("D1")};
  StateGraph::Witness w;
  ASSERT_TRUE(g.eventually_then(at_d0, at_d1, &w));
  ASSERT_GE(w.size(), 2u);
  const std::vector<std::size_t>& inits = g.initial_states();
  EXPECT_NE(std::find(inits.begin(), inits.end(), w.front().first),
            inits.end());
  EXPECT_TRUE(at_d1(g.config(w.back().first)));
  EXPECT_EQ(w.back().second.rule, -1);
  bool passed_d0 = false;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const auto [s, a] = w[i];
    passed_d0 = passed_d0 || at_d0(g.config(s));
    if (i + 1 == w.size()) break;
    bool steps_there = false;
    for (const StateGraph::Edge& e : g.edges(s)) {
      if (!(g.action(e) == a)) continue;
      for (std::uint32_t t : g.successors(e)) {
        steps_there = steps_there || t == w[i + 1].first;
      }
    }
    EXPECT_TRUE(steps_there) << "entry " << i << ", rule " << a.rule;
  }
  EXPECT_TRUE(passed_d0);
}

TEST(StateGraph, DescribeNamesEachWitnessActionAndRejectsItsEnd) {
  // Every witness entry but the last names the modeled action taken there;
  // the last carries rule -1, which describe rejects as apply does instead
  // of reading past the rule table.
  ta::System rd = ta::single_round(naive_voting());
  ExplicitSystem es(rd, {5, 2}, 1);
  StateGraph g(es, es.border_start_configs());
  StateGraph::Witness w;
  ASSERT_TRUE(g.eventually_then(Reached{&es, rd.process.find_loc("D0")},
                                Reached{&es, rd.process.find_loc("D1")}, &w));
  for (std::size_t i = 0; i + 1 < w.size(); ++i) {
    const Action a = w[i].second;
    EXPECT_EQ(es.describe(a),
              rd.process.rules[static_cast<std::size_t>(a.rule)].name + "@r0");
  }
  EXPECT_THROW((void)es.describe(w.back().second), std::invalid_argument);
  EXPECT_THROW((void)es.describe(Action{false, 0, 1}), std::invalid_argument);
}

TEST(StateGraph, NaiveVotingAgreementHoldsWithoutByzantine) {
  ta::System rd = ta::single_round(naive_voting());
  ExplicitSystem es(rd, {3, 0}, 1);  // 3 correct, no Byzantine
  StateGraph g(es, es.border_start_configs());
  LocId d0 = rd.process.find_loc("D0");
  LocId d1 = rd.process.find_loc("D1");
  bool ce = g.eventually_then(Reached{&es, d0},
                              [&](const Config& c) {
                                return es.kappa(c, false, d1, 0) > 0;
                              });
  EXPECT_FALSE(ce);
  // Symmetric direction.
  bool ce2 = g.eventually_then(Reached{&es, d1},
                               [&](const Config& c) {
                                 return es.kappa(c, false, d0, 0) > 0;
                               });
  EXPECT_FALSE(ce2);
}

TEST(StateGraph, ValidityHoldsOnNaiveVoting) {
  // All correct start with 0 => nobody decides 1, even with Byzantine f=1:
  // 2*(v1 + f) >= n+1 needs v1 >= (n+1-2f)/2 = 3/2 at n=4,f=1, but v1 = 0.
  ta::System rd = ta::single_round(naive_voting());
  ExplicitSystem es(rd, {4, 1}, 1);
  LocId j0 = rd.process.find_loc("J0");
  std::vector<Config> all0;
  for (const Config& c : es.border_start_configs()) {
    if (es.kappa(c, false, j0, 0) == es.num_processes()) all0.push_back(c);
  }
  ASSERT_EQ(all0.size(), 1u);
  StateGraph g(es, all0);
  LocId d1 = rd.process.find_loc("D1");
  EXPECT_FALSE(g.some_reachable(Reached{&es, d1}));
}

TEST(StateGraph, CoinAdoptionTerminatesWithAgreement) {
  ta::System rd = ta::single_round(mini_coin_system());
  ExplicitSystem es(rd, {4, 1}, 1);
  StateGraph g(es, es.border_start_configs());
  LocId e0 = rd.process.find_loc("E0");
  LocId e1 = rd.process.find_loc("E1");
  LocId j0p = rd.process.find_loc("J0'");
  LocId j1p = rd.process.find_loc("J1'");
  // Target: all processes ended the round (E_v or past it, at B'_v) and all
  // with the same value.
  auto same_value = [&](const Config& c) {
    long long ended0 =
        es.kappa(c, false, e0, 0) + es.kappa(c, false, j0p, 0);
    long long ended1 =
        es.kappa(c, false, e1, 0) + es.kappa(c, false, j1p, 0);
    if (ended0 > 0 && ended1 > 0) return false;
    return ended0 + ended1 == es.num_processes();
  };
  std::vector<bool> target = g.mark(same_value);
  std::vector<bool> avoid = g.can_avoid(target);
  // The coin value is adopted by everyone, so every fair maximal path ends
  // with all processes agreeing: no initial state can avoid the target.
  for (std::size_t s : g.initial_states()) EXPECT_FALSE(avoid[s]);
}

TEST(StateGraph, ForallAdversaryExistsSafeOnCoinAdoption) {
  // (C1)-style check: whatever the adversary does, some coin outcome lets
  // every process end with the same value; "bad" = both E0 and E1 occupied.
  ta::System rd = ta::single_round(mini_coin_system());
  ExplicitSystem es(rd, {4, 1}, 1);
  StateGraph g(es, es.border_start_configs());
  LocId e0 = rd.process.find_loc("E0");
  LocId e1 = rd.process.find_loc("E1");
  auto bad = g.mark([&](const Config& c) {
    return es.kappa(c, false, e0, 0) > 0 && es.kappa(c, false, e1, 0) > 0;
  });
  auto win = g.forall_adversary_exists_safe(bad);
  for (std::size_t s : g.initial_states()) EXPECT_TRUE(win[s]);
}

// ---------------------------------------------------------------------------
// The packed engine: pinned sweep graph sizes, agreement with the Config
// semantics, and the 16-bit range.
// ---------------------------------------------------------------------------

/// A sweep game's starting configurations, as the pipeline picks them:
/// every border start for (C1) (`value` -1), or for (C2') the one with
/// every process on `value`.
std::vector<Config> sweep_starts(const ExplicitSystem& es, int value) {
  std::vector<Config> all = es.border_start_configs();
  if (value < 0) return all;
  const std::vector<LocId> bv =
      es.system().process.locs_with(ta::LocRole::kBorder, value);
  std::vector<Config> out;
  for (const Config& c : all) {
    long long here = 0;
    for (LocId l : bv) here += es.kappa(c, false, l, 0);
    if (here == es.num_processes()) out.push_back(c);
  }
  return out;
}

TEST(StateGraph, SweepGraphSizesArePinned) {
  // (states, edges) of every (C1) and (C2') graph of three builtins, and
  // CC85b's largest (C1) graph: a change to the semantics or the engine
  // that grows or shrinks a sweep game shows here first.
  struct Pinned {
    const char* protocol;
    std::vector<long long> params;
    int value;  // -1: (C1)
    std::size_t states, edges;
  };
  const Pinned pinned[] = {
      {"NaiveVoting", {3, 0}, -1, 132, 220},
      {"NaiveVoting", {3, 0}, 0, 29, 46},
      {"NaiveVoting", {3, 0}, 1, 29, 46},
      {"NaiveVoting", {4, 1}, -1, 132, 220},
      {"NaiveVoting", {4, 1}, 0, 29, 46},
      {"NaiveVoting", {4, 1}, 1, 29, 46},
      {"NaiveVoting", {5, 2}, -1, 278, 556},
      {"NaiveVoting", {5, 2}, 0, 35, 60},
      {"NaiveVoting", {5, 2}, 1, 35, 60},
      {"CC85a", {4, 1, 0}, -1, 2472, 6408},
      {"CC85a", {4, 1, 0}, 0, 448, 1130},
      {"CC85a", {4, 1, 0}, 1, 448, 1130},
      {"CC85a", {4, 1, 1}, -1, 1776, 4504},
      {"CC85a", {4, 1, 1}, 0, 256, 590},
      {"CC85a", {4, 1, 1}, 1, 256, 590},
      {"CC85a", {5, 1, 1}, -1, 4760, 13712},
      {"CC85a", {5, 1, 1}, 0, 448, 1130},
      {"CC85a", {5, 1, 1}, 1, 448, 1130},
      {"KS16", {4, 1, 0}, -1, 4664, 12474},
      {"KS16", {4, 1, 0}, 0, 616, 1588},
      {"KS16", {4, 1, 0}, 1, 616, 1588},
      {"KS16", {4, 1, 1}, -1, 6920, 20320},
      {"KS16", {4, 1, 1}, 0, 356, 846},
      {"KS16", {4, 1, 1}, 1, 356, 846},
      {"KS16", {5, 1, 1}, -1, 39372, 138284},
      {"KS16", {5, 1, 1}, 0, 664, 1736},
      {"KS16", {5, 1, 1}, 1, 664, 1736},
      {"CC85b", {8, 1, 1}, -1, 63040, 235320},
  };
  const frontend::ProtocolRegistry registry =
      frontend::ProtocolRegistry::with_builtins();
  std::map<std::string, protocols::ProtocolModel> models;
  std::map<std::string, ta::System> rds;
  for (const Pinned& p : pinned) {
    if (!rds.count(p.protocol)) {
      models.emplace(p.protocol, registry.make(p.protocol));
      rds.emplace(p.protocol, ta::single_round(models.at(p.protocol).system));
    }
    ExplicitSystem es(rds.at(p.protocol), p.params, 1);
    StateGraph g(es, sweep_starts(es, p.value));
    std::ostringstream tag;
    tag << p.protocol;
    for (long long v : p.params) tag << " " << v;
    tag << " value " << p.value;
    EXPECT_EQ(g.num_states(), p.states) << tag.str();
    EXPECT_EQ(g.num_edges(), p.edges) << tag.str();
    std::size_t edges = 0;
    for (std::size_t s = 0; s < g.num_states(); ++s) {
      edges += g.edges(s).size();
    }
    EXPECT_EQ(edges, g.num_edges()) << tag.str();
  }
  // Every sweep instance of the three fully pinned builtins is listed.
  for (const char* name : {"NaiveVoting", "CC85a", "KS16"}) {
    std::size_t listed = 0;
    for (const Pinned& p : pinned) {
      listed += std::string(p.protocol) == name ? 1 : 0;
    }
    EXPECT_EQ(listed, 3 * models.at(name).sweep_params.size()) << name;
  }
}

/// The packed graph against the Config semantics, state by state: a
/// state's edges are applicable_actions in order, and each successor is
/// apply_outcome of its outcome.
void expect_graph_matches_semantics(const ExplicitSystem& es) {
  StateGraph g(es, es.border_start_configs());
  ASSERT_GT(g.num_states(), 1u);
  std::size_t outcomes = 0;
  for (std::size_t s = 0; s < g.num_states(); ++s) {
    const Config c = g.config(s);
    const std::vector<Action> actions = es.applicable_actions(c);
    const std::span<const StateGraph::Edge> edges = g.edges(s);
    ASSERT_EQ(edges.size(), actions.size()) << es.describe(c);
    EXPECT_EQ(g.terminal(s), actions.empty());
    for (std::size_t i = 0; i < actions.size(); ++i) {
      EXPECT_EQ(g.action(edges[i]), actions[i]) << es.describe(c);
      const std::span<const std::uint32_t> succ = g.successors(edges[i]);
      ASSERT_EQ(succ.size(), es.apply(c, actions[i]).size());
      for (std::size_t k = 0; k < succ.size(); ++k, ++outcomes) {
        EXPECT_EQ(g.config(succ[k]),
                  es.apply_outcome(c, actions[i], static_cast<int>(k)))
            << es.describe(c) << " --" << es.describe(actions[i]) << "-> #"
            << k;
      }
    }
  }
  EXPECT_GE(outcomes, g.num_edges());
}

TEST(StateGraph, PackedGraphMatchesConfigSemantics) {
  const ta::System nv = ta::single_round(naive_voting());
  expect_graph_matches_semantics(ExplicitSystem(nv, {5, 2}, 1));
  // The coin toss: one edge, two outcomes.
  const ta::System coin = ta::single_round(mini_coin_system());
  expect_graph_matches_semantics(ExplicitSystem(coin, {4, 1}, 1));
}

TEST(StateGraph, EachBuildBumpsTheSweepCountersOnce) {
  // One build: cs.graphs 1, its states and edges, one state_graph span
  // carrying both, and the --metrics - table's sweep line.
  obs::Registry::global().set_enabled(true);
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  obs::Tracer::global().enable();
  const ta::System rd = ta::single_round(naive_voting());
  ExplicitSystem es(rd, {5, 2}, 1);
  const StateGraph g(es, es.border_start_configs());
  obs::Tracer::global().disable();
  obs::Registry::global().set_enabled(false);
  const obs::Snapshot snap = obs::Registry::global().snapshot();
  EXPECT_EQ(snap.counter("cs.graphs"), 1u);
  EXPECT_EQ(snap.counter("cs.states"), g.num_states());
  EXPECT_EQ(snap.counter("cs.edges"), g.num_edges());
  EXPECT_NE(snap.to_table().find("sweep graphs          1 built, 278 "
                                 "states, 556 edges"),
            std::string::npos)
      << snap.to_table();
  std::vector<std::string> spans;
  for (const obs::Tracer::Event& e : obs::Tracer::global().events()) {
    if (std::string(e.name) == "state_graph") spans.push_back(e.args);
  }
  EXPECT_EQ(spans, std::vector<std::string>{"\"states\":278,\"edges\":556"});
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
}

TEST(StateGraph, ValueOutside16BitsIsAnOverflowError) {
  // Each vote adds 70,000: the first one leaves a row word's range, and
  // the error names the slot instead of wrapping the count.
  const ta::System rd = ta::single_round(naive_voting(70'000));
  ExplicitSystem es(rd, {4, 1}, 1);
  try {
    StateGraph g(es, es.border_start_configs());
    FAIL() << "built " << g.num_states() << " states";
  } catch (const std::overflow_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("@r0 = 70000 is outside"), std::string::npos) << what;
  }
}

TEST(StateGraph, OverflowIsOneContainedSweepError) {
  // The same spec through the pipeline: every (C1) instance overflows, and
  // the sweep carries exactly one contained ERROR.
  std::ifstream in(frontend::builtin_spec_dir() + "/naive_voting.cta");
  std::stringstream text;
  text << in.rdbuf();
  std::string spec = text.str();
  for (const char* var : {"v0 += 1", "v1 += 1"}) {
    const std::size_t at = spec.find(var);
    ASSERT_NE(at, std::string::npos) << var;
    spec.replace(at, std::string(var).size(),
                 std::string(var, 6) + "70000");
  }
  verify::Options opts;
  opts.jobs = 1;
  opts.only_obligations = {"C1"};
  const verify::ProtocolReport r = verify::verify_protocol(
      frontend::load_spec_string(spec, "naive_voting_70000.cta"), opts);
  ASSERT_EQ(r.termination.obligations.size(), 1u);
  const verify::Obligation& o = r.termination.obligations[0];
  ASSERT_TRUE(o.error.has_value());
  EXPECT_EQ(o.error->kind, "exception");
  EXPECT_NE(o.error->what.find("[0, 65535]"), std::string::npos)
      << o.error->what;
  EXPECT_EQ(o.detail, "instances (3,0)=ERROR (4,1)=ERROR (5,2)=ERROR");
  EXPECT_NE(verify::table2_row(r).find("ERROR (1 contained)"),
            std::string::npos)
      << verify::table2_row(r);
}

// ---------------------------------------------------------------------------
// Theorem 1: random multi-round schedules reorder to round-rigid ones.
// ---------------------------------------------------------------------------

class ReorderProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(ReorderProperty, RoundRigidReorderPreservesEverything) {
  ta::System sys = mini_coin_system();
  ExplicitSystem es(sys, {4, 1}, 3);
  std::mt19937 rng(GetParam());
  Config c0 = es.initial_configs()[static_cast<std::size_t>(rng()) %
                                   es.initial_configs().size()];
  // Random walk.
  Schedule tau;
  Config c = c0;
  for (int step = 0; step < 40; ++step) {
    auto actions = es.applicable_actions(c);
    if (actions.empty()) break;
    Action a = actions[static_cast<std::size_t>(rng()) % actions.size()];
    const ta::Rule& r = (a.coin ? sys.coin : sys.process)
                            .rules[static_cast<std::size_t>(a.rule)];
    int outcome = static_cast<int>(rng() % r.to.outcomes.size());
    tau.push_back({a, outcome});
    c = es.apply_outcome(c, a, outcome);
  }
  Schedule rigid = round_rigid_reorder(tau);
  EXPECT_TRUE(is_round_rigid(rigid));
  ASSERT_TRUE(schedule_applicable(es, c0, rigid));
  // Same final configuration.
  EXPECT_EQ(apply_schedule(es, c0, rigid), c);
  // Stutter equivalence per round.
  auto path_a = path_configs(es, c0, tau);
  auto path_b = path_configs(es, c0, rigid);
  for (int k = 0; k < es.rounds(); ++k) {
    EXPECT_TRUE(stutter_equivalent(ap_trace(es, path_a, k),
                                   ap_trace(es, path_b, k)))
        << "round " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReorderProperty,
                         ::testing::Range(0u, 20u));

}  // namespace
}  // namespace ctaver::cs
