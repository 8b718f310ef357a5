// Serial-equivalence harness for the parallel obligation scheduler: running
// verify_protocol with jobs=1 and jobs=N must produce byte-identical
// report_text (verdicts, obligation order, counterexamples, nschemas) for
// every registry protocol, and a tight shared budget must degrade to
// inconclusive obligations — never a wrong verdict — in both modes. It
// also pins the complete protocols' schema/query/pivot counts and bounds
// the claim index's unit imbalance and the fresh encoder's pivot ratio.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "frontend/registry.h"
#include "util/thread_pool.h"
#include "verify/pipeline.h"

namespace ctaver::verify {
namespace {

protocols::ProtocolModel builtin(const std::string& name) {
  return frontend::ProtocolRegistry::with_builtins().make(name);
}

/// Workers for the parallel leg: hardware_concurrency per the harness
/// contract, but at least 4 so single-core CI runners still exercise real
/// task interleaving on the pool.
int parallel_jobs() {
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(hw > 4 ? hw : 4);
}

/// Σ nschemas, Σ nqueries and Σ npivots over a report's obligations.
using Counts = std::array<long long, 3>;

Counts count_totals(const ProtocolReport& r) {
  Counts c{};
  for (const PropertyResult* p :
       {&r.agreement, &r.validity, &r.termination}) {
    for (const Obligation& o : p->obligations) {
      c[0] += o.nschemas;
      c[1] += o.nqueries;
      c[2] += o.npivots;
    }
  }
  return c;
}

/// The six protocols cheap enough to discharge conclusively in a test run,
/// with their counts at jobs 1, workers 1, sweeps off. Every run completes,
/// so the counts are machine-independent: a drift means the enumeration,
/// the encoder or the solver changed its work. The category-(C) models
/// (MMR14, Miller18, ABY22) need minutes-to-hours of enumeration, so
/// SerialEquivalenceOnEveryRegistryProtocol covers them in a deterministic
/// zero-budget regime instead.
const std::map<std::string, Counts> kCompleteCounts = {
    {"NaiveVoting", {19, 21, 156}},  {"Rabin83", {352, 352, 1720}},
    {"CC85a", {288, 288, 1431}},     {"CC85b", {580, 580, 2569}},
    {"FMR05", {288, 288, 1436}},     {"KS16", {1652, 1652, 7581}},
};

bool conclusively_cheap(const std::string& name) {
  return kCompleteCounts.count(name) > 0;
}

TEST(ParallelPipeline, SerialEquivalenceOnEveryRegistryProtocol) {
  frontend::ProtocolRegistry registry =
      frontend::ProtocolRegistry::with_builtins();
  std::vector<std::string> names = registry.names();
  ASSERT_EQ(names.size(), 9u);
  for (const std::string& name : names) {
    protocols::ProtocolModel pm = registry.make(name);
    Options opts;
    if (!conclusively_cheap(name)) {
      // Deterministic budget-exhausted regime: every obligation is skipped
      // identically in both modes, so structure/verdict equivalence is
      // still exercised end-to-end without hours of schema enumeration.
      opts.schema.time_budget_s = 0.0;
    }
    opts.jobs = 1;
    std::string serial = report_text(verify_protocol(pm, opts));
    // Reports (verdicts, obligations, counterexamples, nschemas) must be
    // byte-identical at every scheduler width.
    for (int jobs : {2, 8, parallel_jobs()}) {
      opts.jobs = jobs;
      std::string parallel = report_text(verify_protocol(pm, opts));
      EXPECT_EQ(serial, parallel) << name << " with jobs=" << jobs;
    }
  }
}

/// Deterministic solver statistics of every budget-complete obligation
/// (npivots, nqueries), masked to -1 for budget-truncated ones. These are
/// not in report_text but must still be byte-for-byte reproducible
/// across every (jobs, workers) combination — the partitioned enumeration's
/// per-unit warm solvers make pivot counts independent of scheduling.
std::vector<long long> complete_solver_stats(const ProtocolReport& r) {
  std::vector<long long> out;
  for (const PropertyResult* p :
       {&r.agreement, &r.validity, &r.termination}) {
    for (const Obligation& o : p->obligations) {
      out.push_back(o.complete ? o.npivots : -1);
      out.push_back(o.complete ? o.nqueries : -1);
    }
  }
  return out;
}

TEST(ParallelPipeline, WorkersJobsMatrixEquivalence) {
  // Tentpole guarantee of the partitioned schema enumeration: rendered
  // reports — verdicts, counterexamples, nschemas — are byte-identical over
  // the full workers x jobs matrix, and so are the per-obligation solver
  // statistics wherever the run completed; the workers-1 base reproduces
  // the pinned counts. Sweeps are off (they never touch enumeration
  // workers; the jobs dimension with sweeps is covered by
  // SerialEquivalenceOnEveryRegistryProtocol), and the expensive
  // category-(C) models run in the deterministic zero-budget regime.
  frontend::ProtocolRegistry registry =
      frontend::ProtocolRegistry::with_builtins();
  std::vector<std::string> names = registry.names();
  ASSERT_EQ(names.size(), 9u);
  // Per-logical-worker unit counts at (jobs 1, workers 2), slot-summed
  // over the four protocols with many small units.
  std::vector<schema::CheckResult::WorkerStat> slots;
  for (const std::string& name : names) {
    protocols::ProtocolModel pm = registry.make(name);
    Options opts;
    opts.run_sweeps = false;
    if (!conclusively_cheap(name)) opts.schema.time_budget_s = 0.0;
    opts.jobs = 1;
    opts.schema.workers = 1;
    ProtocolReport base = verify_protocol(pm, opts);
    std::string base_render = report_text(base);
    std::vector<long long> base_stats = complete_solver_stats(base);
    if (conclusively_cheap(name)) {
      EXPECT_EQ(kCompleteCounts.at(name), count_totals(base))
          << name << ": schemas, queries, pivots";
    }
    for (int workers : {1, 2, 8}) {
      for (int jobs : {1, 2, 8}) {
        if (workers == 1 && jobs == 1) continue;
        opts.jobs = jobs;
        opts.schema.workers = workers;
        ProtocolReport r = verify_protocol(pm, opts);
        EXPECT_EQ(base_render, report_text(r))
            << name << " jobs=" << jobs << " workers=" << workers;
        EXPECT_EQ(base_stats, complete_solver_stats(r))
            << name << " jobs=" << jobs << " workers=" << workers;
        if (jobs == 1 && workers == 2 &&
            (name == "NaiveVoting" || name == "CC85a" || name == "CC85b" ||
             name == "FMR05")) {
          std::vector<schema::CheckResult::WorkerStat> ws = worker_stats(r);
          slots.resize(std::max(slots.size(), ws.size()));
          for (std::size_t w = 0; w < ws.size(); ++w) {
            slots[w].units += ws[w].units;
          }
        }
      }
    }
  }
  // Claim-index balance, max/mean over the two slots. The realized split
  // depends on OS scheduling (worst on few-core machines, where one worker
  // can drain the queue before its sibling is scheduled), so the ceiling
  // is generous: it trips on starvation — 2.0 means one worker claimed
  // everything — not on ordinary jitter.
  ASSERT_EQ(slots.size(), 2u);
  long long total = slots[0].units + slots[1].units;
  ASSERT_GT(total, 0);
  double imbalance =
      2.0 * double(std::max(slots[0].units, slots[1].units)) / double(total);
  EXPECT_LE(imbalance, 1.8) << "units per worker: " << slots[0].units << ", "
                            << slots[1].units;
}

TEST(ParallelPipeline, CoreSkipPreservesReportBytesAndCutsQueries) {
  // UNSAT-core sibling skipping may only reduce solver-query and pivot
  // counts; every rendered byte — verdicts, counterexamples, nschemas —
  // stays put (skipped probes are still charged to the budget).
  frontend::ProtocolRegistry registry =
      frontend::ProtocolRegistry::with_builtins();
  long long q_skip = 0, q_full = 0, p_skip = 0, p_full = 0;
  for (const std::string& name : registry.names()) {
    if (!conclusively_cheap(name)) continue;
    protocols::ProtocolModel pm = registry.make(name);
    Options opts;
    opts.jobs = 1;
    opts.run_sweeps = false;
    opts.schema.core_skip = false;
    ProtocolReport full = verify_protocol(pm, opts);
    opts.schema.core_skip = true;
    ProtocolReport skip = verify_protocol(pm, opts);
    EXPECT_EQ(report_text(full), report_text(skip)) << name;
    const Counts f = count_totals(full), k = count_totals(skip);
    q_full += f[1];
    p_full += f[2];
    q_skip += k[1];
    p_skip += k[2];
  }
  EXPECT_LE(q_skip, q_full);
  EXPECT_LE(p_skip, p_full);
  // No strict-drop assertion here: on the registry protocols the syntactic
  // first-witness bound already collapses every conclusion-cut row to a
  // single placement, so the core skip has no queries to discharge (see
  // CheckSpec.CoreSkipCutsQueriesWhereWitnessRowsAreLong for a system
  // where the row is long and the reduction is observable and asserted).
}

TEST(ParallelPipeline, PartitionDepthDoesNotChangeReportBytes) {
  // The static split depth regroups per-unit warm solvers and sibling
  // skipping, so pivot/query counts may shift — but the canonical order,
  // and with it every rendered byte, is split-invariant.
  frontend::ProtocolRegistry registry =
      frontend::ProtocolRegistry::with_builtins();
  for (const char* name : {"NaiveVoting", "CC85a", "KS16"}) {
    protocols::ProtocolModel pm = registry.make(name);
    Options opts;
    opts.jobs = 1;
    opts.run_sweeps = false;
    opts.schema.workers = 2;
    std::string base = report_text(verify_protocol(pm, opts));
    for (int depth : {1, 3, 5}) {
      opts.schema.partition_depth = depth;
      EXPECT_EQ(base, report_text(verify_protocol(pm, opts)))
          << name << " partition_depth=" << depth;
    }
  }
}

TEST(ParallelPipeline, IncrementalEncoderMatchesFreshEncoder) {
  // The incremental (prefix-reusing) encoder and the fresh-solver-per-query
  // encoder must produce byte-identical reports — same verdicts, same
  // nschemas, same counterexamples — on every conclusively-cheap registry
  // protocol. This is the end-to-end half of the scoped-vs-fresh solver
  // equivalence tests in lia_incremental_test.
  frontend::ProtocolRegistry registry =
      frontend::ProtocolRegistry::with_builtins();
  for (const std::string& name : registry.names()) {
    if (!conclusively_cheap(name)) continue;
    protocols::ProtocolModel pm = registry.make(name);
    Options opts;
    opts.jobs = 1;
    opts.schema.incremental = false;
    std::string fresh = report_text(verify_protocol(pm, opts));
    opts.schema.incremental = true;
    std::string incremental = report_text(verify_protocol(pm, opts));
    EXPECT_EQ(fresh, incremental) << name;
  }
  // A budget-cut leg: at jobs 1 both encoders still see the same 50
  // schemas per protocol and render the same cut. The warm encoder must
  // not spend more pivots than the cold one; the 1.2 margin is there
  // because a warm basis is not pointwise guaranteed to beat a cold one.
  long long fresh_pivots = 0, incremental_pivots = 0;
  for (const char* name : {"NaiveVoting", "CC85a", "KS16"}) {
    protocols::ProtocolModel pm = registry.make(name);
    Options opts;
    opts.jobs = 1;
    opts.run_sweeps = false;
    opts.schema.max_schemas = 50;
    opts.schema.incremental = false;
    ProtocolReport fresh = verify_protocol(pm, opts);
    opts.schema.incremental = true;
    ProtocolReport incremental = verify_protocol(pm, opts);
    EXPECT_EQ(report_text(fresh), report_text(incremental)) << name;
    fresh_pivots += count_totals(fresh)[2];
    incremental_pivots += count_totals(incremental)[2];
  }
  EXPECT_LE(double(incremental_pivots), 1.2 * double(fresh_pivots))
      << "fresh " << fresh_pivots << ", incremental " << incremental_pivots;
}

TEST(ParallelPipeline, SharedPoolAsyncMatchesSerial) {
  // Several protocols submitted up front to ONE shared pool (the `ctaver
  // table2` cross-protocol scheduling mode) must yield the same per-
  // protocol reports as consecutive serial runs.
  frontend::ProtocolRegistry registry =
      frontend::ProtocolRegistry::with_builtins();
  const std::vector<std::string> names = {"NaiveVoting", "Rabin83", "CC85a",
                                          "FMR05"};
  Options opts;
  opts.jobs = 1;
  std::vector<std::string> serial;
  for (const std::string& name : names) {
    serial.push_back(report_text(verify_protocol(registry.make(name), opts)));
  }
  util::ThreadPool pool(parallel_jobs());
  std::vector<ProtocolRun> runs;
  for (const std::string& name : names) {
    runs.push_back(verify_protocol_async(registry.make(name), opts, pool));
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(serial[i], report_text(runs[i].finish())) << names[i];
  }
}

TEST(ParallelPipeline, ConclusiveRunsReproduceKnownVerdicts) {
  frontend::ProtocolRegistry registry =
      frontend::ProtocolRegistry::with_builtins();
  for (int jobs : {1, parallel_jobs()}) {
    Options opts;
    opts.jobs = jobs;
    // The paper's broken warm-up keeps its genuine agreement CE.
    ProtocolReport nv = verify_protocol(registry.make("NaiveVoting"), opts);
    EXPECT_TRUE(nv.agreement.has_counterexample()) << "jobs=" << jobs;
    EXPECT_FALSE(nv.agreement.inconclusive()) << "jobs=" << jobs;
    // A verified category-(B) benchmark stays verified.
    ProtocolReport cc = verify_protocol(registry.make("CC85a"), opts);
    EXPECT_TRUE(cc.agreement.holds()) << "jobs=" << jobs;
    EXPECT_TRUE(cc.validity.holds()) << "jobs=" << jobs;
    EXPECT_TRUE(cc.termination.holds()) << "jobs=" << jobs;
  }
}

TEST(ParallelPipeline, SchemaBudgetExhaustionIsInconclusiveNotWrong) {
  // One schema query for the whole protocol: the parametric obligations
  // cannot finish and must come back inconclusive — never as a
  // counterexample — under both serial and parallel execution. Sweeps race
  // against the budget trip, so they may legitimately complete or be
  // skipped, but they may never report a refutation.
  for (int jobs : {1, parallel_jobs()}) {
    Options opts;
    opts.jobs = jobs;
    opts.schema.max_schemas = 1;
    ProtocolReport r = verify_protocol(builtin("CC85a"), opts);
    for (const PropertyResult* p :
         {&r.agreement, &r.validity, &r.termination}) {
      EXPECT_FALSE(p->has_counterexample()) << "jobs=" << jobs;
    }
    EXPECT_FALSE(r.agreement.holds()) << "jobs=" << jobs;
    EXPECT_TRUE(r.agreement.inconclusive()) << "jobs=" << jobs;
    EXPECT_FALSE(r.validity.holds()) << "jobs=" << jobs;
    EXPECT_TRUE(r.validity.inconclusive()) << "jobs=" << jobs;
    EXPECT_TRUE(r.termination.holds() || r.termination.inconclusive())
        << "jobs=" << jobs;
    EXPECT_NE(table2_row(r).find("budget-limited"), std::string::npos)
        << "jobs=" << jobs;
  }
}

TEST(ParallelPipeline, TimeBudgetExhaustionCancelsSweepsInconclusively) {
  // Zero wall-clock budget: every obligation (parametric and sweep alike)
  // is cancelled before it runs. PropertyResult::inconclusive() must hold
  // everywhere, sweep obligations must carry SKIP tags instead of FAIL,
  // and nothing may masquerade as a counterexample.
  for (int jobs : {1, parallel_jobs()}) {
    Options opts;
    opts.jobs = jobs;
    opts.schema.time_budget_s = 0.0;
    ProtocolReport r = verify_protocol(builtin("CC85a"), opts);
    for (const PropertyResult* p :
         {&r.agreement, &r.validity, &r.termination}) {
      EXPECT_FALSE(p->holds()) << "jobs=" << jobs;
      EXPECT_FALSE(p->has_counterexample()) << "jobs=" << jobs;
      EXPECT_TRUE(p->inconclusive()) << "jobs=" << jobs;
      for (const Obligation& o : p->obligations) {
        EXPECT_FALSE(o.holds) << o.name << " jobs=" << jobs;
        EXPECT_FALSE(o.complete) << o.name << " jobs=" << jobs;
        EXPECT_TRUE(o.ce.empty()) << o.name << " jobs=" << jobs;
        if (!o.parametric) {
          EXPECT_NE(o.detail.find("=SKIP"), std::string::npos)
              << o.name << " jobs=" << jobs;
          EXPECT_EQ(o.detail.find("=FAIL"), std::string::npos)
              << o.name << " jobs=" << jobs;
        }
      }
    }
    EXPECT_EQ(r.termination.failure(), "") << "jobs=" << jobs;
  }
}

TEST(ParallelPipeline, AutoJobsSmoke) {
  // jobs=0 resolves to hardware concurrency; the report must match the
  // serial rendering like any other width.
  Options opts;
  opts.jobs = 1;
  std::string serial = report_text(verify_protocol(builtin("FMR05"), opts));
  opts.jobs = 0;
  std::string auto_jobs = report_text(verify_protocol(builtin("FMR05"), opts));
  EXPECT_EQ(serial, auto_jobs);
}

}  // namespace
}  // namespace ctaver::verify
