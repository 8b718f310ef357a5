// Tests for the schema-based parametric checker: guard analysis, milestone
// enumeration/counting, and end-to-end checks on small systems where the
// expected verdicts are known (naive voting, coin adoption).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "schema/checker.h"
#include "schema/guards.h"
#include "spec/spec.h"
#include "ta/builder.h"
#include "ta/transforms.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace ctaver::schema {
namespace {

using ta::LocId;
using ta::ParamId;
using ta::SystemBuilder;
using ta::VarId;

ta::System naive_voting(bool allow_byzantine) {
  SystemBuilder b(allow_byzantine ? "NaiveVoting" : "NaiveVotingNoFaults");
  ParamId n = b.param("n");
  ParamId f = b.param("f");
  b.require(b.P(n) - b.P(f) * 2, ta::CmpOp::kGt);
  b.require(b.P(f), ta::CmpOp::kGe);
  if (!allow_byzantine) b.require(b.P(f) * -1, ta::CmpOp::kGe);  // f == 0
  b.model_counts(b.P(n) - b.P(f), SystemBuilder::K(0));
  VarId v0 = b.shared("v0");
  VarId v1 = b.shared("v1");
  LocId j0 = b.border("J0", 0), j1 = b.border("J1", 1);
  LocId i0 = b.initial("I0", 0), i1 = b.initial("I1", 1);
  LocId s = b.internal("S");
  LocId d0 = b.final_loc("D0", 0, true), d1 = b.final_loc("D1", 1, true);
  b.border_entry(j0, i0);
  b.border_entry(j1, i1);
  b.rule("r1", i0, s, {}, {{v0, 1}});
  b.rule("r2", i1, s, {}, {{v1, 1}});
  // 2*(v_b + f) >= n + 1
  b.rule("r3", s, d0, {b.ge({{v0, 2}}, b.P("n") - b.P("f") * 2 + b.K(1))});
  b.rule("r4", s, d1, {b.ge({{v1, 2}}, b.P("n") - b.P("f") * 2 + b.K(1))});
  b.round_switch(d0, j0);
  b.round_switch(d1, j1);
  return b.build();
}

ta::System mini_coin_system() {
  SystemBuilder b("MiniCoin");
  ParamId n = b.param("n");
  ParamId f = b.param("f");
  b.require(b.P(n) - b.P(f) * 3, ta::CmpOp::kGt);
  b.require(b.P(f), ta::CmpOp::kGe);
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

ta::System prepared(const ta::System& sys) {
  return ta::single_round(ta::nonprobabilistic(sys));
}

TEST(GuardAnalysis, NaiveVotingGuards) {
  ta::System rd = prepared(naive_voting(true));
  GuardTable table = analyze_guards(rd, /*prune=*/true);
  ASSERT_EQ(table.num_guards(), 2);
  for (const GuardInfo& g : table.guards) {
    EXPECT_TRUE(g.rising);
    EXPECT_TRUE(g.flippable);
    // Thresholds are provably positive under n > 2f.
    EXPECT_FALSE(g.can_start_true);
    // v0/v1 are incremented by guard-free rules: no precedence.
    EXPECT_TRUE(g.must_follow.empty());
  }
}

TEST(GuardAnalysis, CoinGuardsHaveNoPrerequisites) {
  ta::System rd = prepared(mini_coin_system());
  GuardTable table = analyze_guards(rd, true);
  ASSERT_EQ(table.num_guards(), 2);  // cc0 >= 1, cc1 >= 1
  for (const GuardInfo& g : table.guards) {
    EXPECT_TRUE(g.rising);
    EXPECT_TRUE(g.flippable);  // coin rules rc/rd increment cc0/cc1
    EXPECT_FALSE(g.can_start_true);
  }
}

TEST(SchemaCount, ArrangementTimesCutPositions) {
  // Unpruned: orders {}, (a), (b), (ab), (ba); two unordered cuts give
  // m(m+1) placements per order with m segments.
  ta::System rd = prepared(naive_voting(true));
  spec::Spec inv1 = spec::inv1(rd, 0);
  long long raw = count_schemas(rd, inv1, false, 1'000'000);
  EXPECT_EQ(raw, 2 + 6 + 6 + 12 + 12);
  // Pruned: the two guards gate only zero-update decision rules, so they
  // commute and (b, a) collapses into (a, b).
  long long pruned = count_schemas(rd, inv1, true, 1'000'000);
  EXPECT_EQ(pruned, 2 + 6 + 6 + 12);
  // Single-cut shape: m placements per order.
  spec::Spec inv2 = spec::inv2(rd, 0);
  EXPECT_EQ(count_schemas(rd, inv2, false, 1'000'000), 1 + 2 + 2 + 3 + 3);
  EXPECT_EQ(count_schemas(rd, inv2, true, 1'000'000), 1 + 2 + 2 + 3);
}

TEST(SchemaCount, MilestoneCount) {
  EXPECT_EQ(count_milestones(prepared(naive_voting(true)), true), 2);
  EXPECT_EQ(count_milestones(prepared(mini_coin_system()), true), 2);
}

TEST(CheckSpec, NaiveVotingAgreementFailsWithByzantine) {
  ta::System rd = prepared(naive_voting(true));
  CheckResult res = check_spec(rd, spec::inv1(rd, 0));
  EXPECT_FALSE(res.holds);
  ASSERT_TRUE(res.ce.has_value());
  // Minimal witness: n = 3, t/f = 1 (both thresholds reachable).
  EXPECT_EQ(res.ce->params[0], 3);  // n
  EXPECT_EQ(res.ce->params[1], 1);  // f
  EXPECT_GT(res.nschemas, 0);
}

TEST(CheckSpec, NaiveVotingAgreementHoldsWithoutFaults) {
  ta::System rd = prepared(naive_voting(false));
  CheckResult res = check_spec(rd, spec::inv1(rd, 0));
  EXPECT_TRUE(res.holds);
  EXPECT_TRUE(res.complete);
  CheckResult res1 = check_spec(rd, spec::inv1(rd, 1));
  EXPECT_TRUE(res1.holds);
}

TEST(CheckSpec, NaiveVotingValidityHoldsEvenWithByzantine) {
  ta::System rd = prepared(naive_voting(true));
  for (int v : {0, 1}) {
    CheckResult res = check_spec(rd, spec::inv2(rd, v));
    EXPECT_TRUE(res.holds) << "v=" << v;
    EXPECT_TRUE(res.complete);
  }
}

TEST(CheckSpec, CoinAdoptionAgreementViolatedAcrossCoinValues) {
  // MiniCoin lets different processes read different coin throws only if
  // both cc0 and cc1 are set — impossible with one coin per round, so E0
  // and E1 cannot both be entered... unless processes start with different
  // values? No: everyone adopts the coin. Expect: A(F EX{E0} -> G !EX{E1})
  // holds.
  ta::System rd = prepared(mini_coin_system());
  spec::Spec s;
  s.name = "coin-consistency";
  s.shape = spec::Shape::kEventuallyImpliesGlobally;
  s.premise = spec::LocSet::process({rd.process.find_loc("E0")});
  s.conclusion = spec::LocSet::process({rd.process.find_loc("E1")});
  CheckResult res = check_spec(rd, s);
  EXPECT_TRUE(res.holds);
  EXPECT_TRUE(res.complete);
}

TEST(CheckSpec, EmptyPremiseHoldsVacuously) {
  ta::System rd = prepared(mini_coin_system());
  // No decision locations: Inv1's premise EX{D_v} is empty.
  CheckResult res = check_spec(rd, spec::inv1(rd, 0));
  EXPECT_TRUE(res.holds);
  EXPECT_TRUE(res.complete);
  EXPECT_EQ(res.nschemas, 0);
}

TEST(SharedBudgetTest, ChargeStopsExactlyAtMax) {
  // used() may never exceed max_: the clamp rejects the losing charge
  // instead of letting it push the counter past the cap.
  SharedBudget budget(5, 600.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(budget.charge()) << "i=" << i;
  }
  EXPECT_EQ(budget.used(), 5);
  EXPECT_FALSE(budget.charge());
  EXPECT_EQ(budget.used(), 5);  // the failed charge left no trace
  EXPECT_TRUE(budget.exhausted());
  EXPECT_TRUE(budget.cancel.cancelled());
}

TEST(SharedBudgetTest, OversizedChargeRejectedWholesale) {
  SharedBudget budget(5, 600.0);
  EXPECT_TRUE(budget.charge(3));
  EXPECT_EQ(budget.used(), 3);
  // 3 + 3 > 5: rejected atomically — no partial application, no overshoot
  // — and the rejection trips the shared token (first observer wins).
  EXPECT_FALSE(budget.charge(3));
  EXPECT_EQ(budget.used(), 3);
  EXPECT_TRUE(budget.cancel.cancelled());
}

TEST(SharedBudgetTest, RacingChargesNeverOvershoot) {
  // The old fetch-add let every racing loser add its n before noticing the
  // trip, drifting used() past max_ by up to (threads-1)*n. The
  // compare-exchange clamp admits exactly max_ unit charges, total.
  constexpr long long kMax = 5000;
  SharedBudget budget(kMax, 600.0);
  std::atomic<long long> successes{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      long long mine = 0;
      while (budget.charge()) ++mine;
      successes.fetch_add(mine);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(successes.load(), kMax);
  EXPECT_EQ(budget.used(), kMax);
}

TEST(CheckSpec, BudgetExhaustionIsInconclusive) {
  ta::System rd = prepared(naive_voting(false));
  CheckOptions opts;
  opts.max_schemas = 1;  // way too small to finish
  CheckResult res = check_spec(rd, spec::inv1(rd, 0), opts);
  EXPECT_FALSE(res.complete);
  EXPECT_FALSE(res.holds);  // inconclusive must not report "verified"
}

/// A system built so the premise witness of the gap spec below is
/// syntactically placeable from segment 0 — the L→A hop is unguarded,
/// which is all first_witness_segment's direct-rule scan sees — but
/// LIA-infeasible before the w>=1 guard flips (L is only fed by a gated
/// rule). The conclusion-cut row at early c1 then dies by UNSAT-core
/// embedding after a single solve, which is the surface the core_skip
/// optimization needs. (On the registry protocols the syntactic witness
/// bound already collapses every cut row to length one, so this is where
/// the skip's query reduction is actually observable.)
ta::System witness_gap_system() {
  SystemBuilder b("WitnessGap");
  ParamId n = b.param("n");
  b.require(b.P(n) - b.K(1), ta::CmpOp::kGe);  // n >= 1
  b.model_counts(b.P(n), SystemBuilder::K(0));
  VarId w = b.shared("w");
  LocId j = b.border("J", 0);
  LocId i = b.initial("I", 0);
  LocId l = b.internal("L");
  LocId a = b.internal("A");
  LocId bb = b.internal("B");
  b.border_entry(j, i);
  b.rule("rb", i, bb, {}, {{w, 1}});           // unguarded, drives w
  b.rule("rl", i, l, {b.ge(w, b.K(1))});       // gated: feeds L late
  b.rule("ra", l, a, {});                      // unguarded hop into A
  return b.build();
}

TEST(CheckSpec, CoreSkipCutsQueriesWhereWitnessRowsAreLong) {
  ta::System rd = prepared(witness_gap_system());
  spec::Spec s;
  s.name = "gap";
  s.shape = spec::Shape::kEventuallyImpliesGlobally;
  s.premise = spec::LocSet::process({rd.process.find_loc("A")});
  s.conclusion = spec::LocSet::process({rd.process.find_loc("B")});

  CheckOptions opts;
  opts.workers = 1;
  opts.core_skip = false;
  CheckResult full = check_spec(rd, s, opts);
  opts.core_skip = true;
  CheckResult skip = check_spec(rd, s, opts);

  // Identical verdict, schema charges, and counterexample bytes...
  EXPECT_EQ(full.holds, skip.holds);
  EXPECT_EQ(full.complete, skip.complete);
  EXPECT_EQ(full.nschemas, skip.nschemas);
  ASSERT_EQ(full.ce.has_value(), skip.ce.has_value());
  if (full.ce) {
    EXPECT_EQ(full.ce->text, skip.ce->text);
  }
  // ...while the skip discharges part of the cut row without the solver.
  EXPECT_LT(skip.nqueries, full.nqueries);
  EXPECT_LE(skip.npivots, full.npivots);
}

TEST(CheckSpec, MidSubtreeBudgetCancellationNeverFlipsVerdict) {
  // A budget that dies mid-subtree — at any schema count, under any worker
  // width — may only degrade the result to inconclusive (holds=false,
  // complete=false, no counterexample), never flip it. Verified as a spec
  // that holds: no truncation point may fabricate a counterexample or a
  // premature "verified".
  ta::System rd = prepared(naive_voting(false));
  for (int workers : {1, 4}) {
    for (long long cap : {1LL, 2LL, 3LL, 5LL, 8LL, 13LL, 21LL, 100LL}) {
      CheckOptions opts;
      opts.workers = workers;
      opts.max_schemas = cap;
      CheckResult res = check_spec(rd, spec::inv1(rd, 0), opts);
      EXPECT_FALSE(res.ce.has_value()) << "cap=" << cap;
      if (res.holds) {
        EXPECT_TRUE(res.complete) << "cap=" << cap;
      } else {
        EXPECT_FALSE(res.complete) << "cap=" << cap;
      }
    }
  }
  // Asynchronous cancellation racing the enumeration workers: same
  // contract, now with the trip landing inside in-flight solver calls
  // (which the solver's cancel poll turns into kUnknown, not a verdict),
  // or mid-claim (between a cursor fetch and the unit's first level). A
  // couple of split depths take the same battering.
  for (int depth : {1, 2}) {
    for (int delay_us : {0, 50, 200, 1000, 4000}) {
      SharedBudget budget(1'000'000, 600.0);
      CheckOptions opts;
      opts.workers = 4;
      opts.partition_depth = depth;
      opts.budget = &budget;
      std::thread killer([&budget, delay_us] {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        budget.cancel.cancel();
      });
      CheckResult res = check_spec(rd, spec::inv1(rd, 0), opts);
      killer.join();
      const std::string tag = "depth=" + std::to_string(depth) +
                              " delay=" + std::to_string(delay_us);
      EXPECT_FALSE(res.ce.has_value()) << tag;
      if (res.holds) {
        EXPECT_TRUE(res.complete) << tag;
      }
      // Cancellation may strand units unclaimed, but whatever was
      // attributed must stay internally consistent.
      for (const CheckResult::WorkerStat& w : res.per_worker) {
        EXPECT_GE(w.units, 0) << tag;
        EXPECT_GE(w.pivots, 0) << tag;
      }
    }
  }
  // And on a genuinely violated spec the verdict may be the (canonical)
  // counterexample or inconclusive — but never "holds".
  ta::System bad = prepared(naive_voting(true));
  for (long long cap : {1LL, 3LL, 7LL, 1000LL}) {
    CheckOptions opts;
    opts.workers = 4;
    opts.max_schemas = cap;
    CheckResult res = check_spec(bad, spec::inv1(bad, 0), opts);
    EXPECT_FALSE(res.holds) << "cap=" << cap;
    if (!res.ce.has_value()) {
      EXPECT_FALSE(res.complete) << "cap=" << cap;
    }
  }
}

/// A per-check cancel source that trips on its k-th poll and stays tripped.
struct TripOnPoll final : util::CancelSource {
  explicit TripOnPoll(long long k) : k(k) {}
  [[nodiscard]] bool cancelled() const override {
    return polls.fetch_add(1, std::memory_order_relaxed) + 1 >= k;
  }
  long long k;
  mutable std::atomic<long long> polls{0};
};

TEST(CheckSpec, CancelAtAnyPollOfARefutedSpecNeverThrows) {
  // The refuted case of the test above, cut deterministically: one worker,
  // a cancel source tripping on its k-th poll, for every k the uncancelled
  // run reaches. Trips that land inside the counterexample's re-solve
  // (between its SAT check and the minimization's own check) included, the
  // result is the counterexample or inconclusive, never an exception.
  ta::System bad = prepared(naive_voting(true));
  const spec::Spec inv1 = spec::inv1(bad, 0);
  CheckOptions opts;
  opts.workers = 1;
  TripOnPoll never(std::numeric_limits<long long>::max());
  opts.extra_cancel = &never;
  const CheckResult ref = check_spec(bad, inv1, opts);
  ASSERT_TRUE(ref.ce.has_value());
  const long long polls = never.polls.load();
  ASSERT_GT(polls, 1);
  for (long long k = 1; k <= polls; ++k) {
    TripOnPoll trip(k);
    opts.extra_cancel = &trip;
    CheckResult res;
    ASSERT_NO_THROW(res = check_spec(bad, inv1, opts)) << "k=" << k;
    EXPECT_FALSE(res.holds) << "k=" << k;
    if (res.ce.has_value()) {
      EXPECT_EQ(res.ce->text, ref.ce->text) << "k=" << k;
    } else {
      EXPECT_FALSE(res.complete) << "k=" << k;
    }
  }
}

TEST(CheckSpec, WorkersAndPoolProduceIdenticalResults) {
  // Direct check_spec determinism across worker widths and across the
  // private-threads vs shared-pool dispatch paths (the pipeline's
  // nested-parallelism spill), including the counterexample bytes.
  ta::System rd = prepared(naive_voting(true));
  CheckOptions base;
  base.workers = 1;
  CheckResult ref = check_spec(rd, spec::inv1(rd, 0), base);
  ASSERT_TRUE(ref.ce.has_value());
  for (int workers : {2, 3, 8}) {
    CheckOptions opts;
    opts.workers = workers;
    CheckResult res = check_spec(rd, spec::inv1(rd, 0), opts);
    EXPECT_EQ(res.nschemas, ref.nschemas) << "workers=" << workers;
    EXPECT_EQ(res.nqueries, ref.nqueries) << "workers=" << workers;
    EXPECT_EQ(res.npivots, ref.npivots) << "workers=" << workers;
    ASSERT_TRUE(res.ce.has_value()) << "workers=" << workers;
    EXPECT_EQ(res.ce->text, ref.ce->text) << "workers=" << workers;
    EXPECT_EQ(res.ce->milestones, ref.ce->milestones)
        << "workers=" << workers;
  }
  util::ThreadPool pool(3);
  CheckOptions pooled;
  pooled.workers = 3;
  pooled.pool = &pool;
  CheckResult res = check_spec(rd, spec::inv1(rd, 0), pooled);
  EXPECT_EQ(res.nschemas, ref.nschemas);
  EXPECT_EQ(res.npivots, ref.npivots);
  ASSERT_TRUE(res.ce.has_value());
  EXPECT_EQ(res.ce->text, ref.ce->text);
}

TEST(CheckSpec, ClaimIndexMatchesOneWorkerAtEveryDepth) {
  // The placement half of the determinism contract: the claim index
  // (dynamic placement) produces the same CheckResult bytes — nschemas,
  // nqueries, npivots, CE text — at every workers value, for every
  // partition_depth, on both a violated and a holding spec. Placement only
  // moves units between workers; per-unit work and the canonical merge are
  // placement-independent. The reference is workers=1 at the same depth:
  // the split depth moves warm-solver replay boundaries, so npivots is
  // per-depth deterministic, not depth-invariant.
  for (bool byzantine : {true, false}) {
    ta::System rd = prepared(naive_voting(byzantine));
    for (int depth : {1, 2, 3}) {
      CheckOptions base;
      base.workers = 1;
      base.partition_depth = depth;
      CheckResult ref = check_spec(rd, spec::inv1(rd, 0), base);
      for (int workers : {2, 3, 8}) {
        CheckOptions opts;
        opts.workers = workers;
        opts.partition_depth = depth;
        CheckResult res = check_spec(rd, spec::inv1(rd, 0), opts);
        const std::string tag = std::string(byzantine ? "byz" : "clean") +
                                " workers=" + std::to_string(workers) +
                                " depth=" + std::to_string(depth);
        EXPECT_EQ(res.holds, ref.holds) << tag;
        EXPECT_EQ(res.complete, ref.complete) << tag;
        EXPECT_EQ(res.nschemas, ref.nschemas) << tag;
        EXPECT_EQ(res.nqueries, ref.nqueries) << tag;
        EXPECT_EQ(res.npivots, ref.npivots) << tag;
        ASSERT_EQ(res.ce.has_value(), ref.ce.has_value()) << tag;
        if (ref.ce) {
          EXPECT_EQ(res.ce->text, ref.ce->text) << tag;
          EXPECT_EQ(res.ce->milestones, ref.ce->milestones) << tag;
        }
      }
    }
  }
}

/// G commuting rising guards u_g >= 1, each fed by its own unguarded I->S
/// rule and gating its own zero-update S->T_g decision rule. Independence
/// pruning keeps only index-ascending milestone orders, so the depth-1
/// subtree rooted at guard g holds the 2^(G-1-g) orders over the later
/// guards: unit sizes halve along the canonical sibling order. A fixed
/// round-robin at 2 workers would hand worker 0 the units sized
/// 2^(G-1), 2^(G-3), ... — two thirds of all work — which is the shape the
/// claim index exists to re-balance. Z is
/// unreachable, so the two-cut spec premise {T0} -> G !{Z} holds and the
/// enumeration always runs dry (full merge, full per-worker attribution).
ta::System skewed_fan(int nguards) {
  SystemBuilder b("SkewedFan");
  ParamId n = b.param("n");
  b.require(b.P(n) - b.K(1), ta::CmpOp::kGe);  // n >= 1
  b.model_counts(b.P(n), SystemBuilder::K(0));
  LocId j = b.border("J", 0);
  LocId i = b.initial("I", 0);
  LocId s = b.internal("S");
  b.internal("Z");  // no rule enters Z: the holds-spec conclusion
  b.border_entry(j, i);
  for (int g = 0; g < nguards; ++g) {
    const std::string tag = std::to_string(g);
    VarId u = b.shared("u" + tag);
    b.rule("inc" + tag, i, s, {}, {{u, 1}});
    b.rule("dec" + tag, s, b.internal("T" + tag), {b.ge(u, b.K(1))});
  }
  return b.build();
}

TEST(CheckSpec, ClaimIndexBalancesSkewedUnits) {
  ta::System rd = prepared(skewed_fan(6));
  spec::Spec s;
  s.name = "skew";
  s.shape = spec::Shape::kEventuallyImpliesGlobally;
  s.premise = spec::LocSet::process({rd.process.find_loc("T0")});
  s.conclusion = spec::LocSet::process({rd.process.find_loc("Z")});

  CheckOptions base;
  base.workers = 1;
  base.partition_depth = 1;
  CheckResult ref = check_spec(rd, s, base);
  ASSERT_TRUE(ref.holds);
  ASSERT_TRUE(ref.complete);
  ASSERT_EQ(ref.per_worker.size(), 1u);
  EXPECT_EQ(ref.per_worker[0].units, 6);

  // Claim index: a worker holds at most one unfinished unit, so the worker
  // stuck on the giant first unit stops accumulating siblings and the
  // other drains the queue. The realized placement depends on OS
  // scheduling — under load the second worker may claim nothing at all —
  // so the ≤1.8 balance ceiling is asserted on the real protocols
  // (ParallelPipeline.WorkersJobsMatrixEquivalence), and here we assert
  // what holds under any schedule: identity with the 1-worker run, and
  // full attribution.
  CheckOptions cl = base;
  cl.workers = 2;
  CheckResult res = check_spec(rd, s, cl);
  EXPECT_EQ(res.npivots, ref.npivots);
  EXPECT_EQ(res.nschemas, ref.nschemas);
  EXPECT_EQ(res.nqueries, ref.nqueries);
  ASSERT_EQ(res.per_worker.size(), 2u);
  // No CE, no budget trip: every unit is claimed exactly once, and the
  // attributed pivots add up to the whole partitioned tree.
  EXPECT_EQ(res.per_worker[0].units + res.per_worker[1].units, 6);
  EXPECT_EQ(res.per_worker[0].pivots + res.per_worker[1].pivots,
            ref.per_worker[0].pivots);
}

TEST(CheckSpec, UnprunedEnumerationStillSound) {
  ta::System rd = prepared(naive_voting(true));
  CheckOptions opts;
  opts.prune = false;
  CheckResult res = check_spec(rd, spec::inv1(rd, 0), opts);
  EXPECT_FALSE(res.holds);
  ASSERT_TRUE(res.ce.has_value());
  EXPECT_EQ(res.ce->params[0], 3);
}

}  // namespace
}  // namespace ctaver::schema
