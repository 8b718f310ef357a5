// Schema-based parametric verification of single-round threshold automata —
// the role ByMC plays in the paper (Sect. V-A, technique of Konnov et al.).
//
// A *schema* fixes (i) the order in which threshold guards flip (the
// milestones) and (ii) where along that order the specification's witness
// points fall. Between milestones the context is steady, so any schedule
// can be reordered into batches of rule executions in a fixed topological
// order; the existence of a schedule following the schema that violates the
// spec then becomes a linear-integer query with the *parameters as
// unknowns*, discharged by src/lia. A SAT answer yields a concrete
// counterexample (parameter valuation + batch counts); UNSAT across all
// schemas proves the property for every admissible parameter valuation
// within the small-model caps (kParamCap, kBatchCap below).
//
// Soundness: every reported counterexample is a real schedule (the encoding
// checks applicability batch-by-batch and guard truth at every use).
// Completeness: every violating schedule maps to some enumerated schema
// (monotone guards ⇒ the flip order is well defined; cut points preserve
// the witness configuration; within steady contexts the batch reordering is
// a mover argument over the location DAG). `complete=false` is reported
// when the enumeration or solver budget ran out instead.
#pragma once

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "schema/guards.h"
#include "spec/spec.h"
#include "ta/model.h"
#include "util/cancel.h"
#include "util/rss.h"
#include "util/stopwatch.h"

namespace ctaver::util {
class ThreadPool;
}

namespace ctaver::schema {

/// A time/schema budget shared by several concurrent check_spec calls (and
/// the pipeline's sweep tasks). Consumers charge() one unit per LIA query;
/// the first consumer to observe exhaustion — or an external cancel() on the
/// token — trips the token, which cancels every in-flight sibling at its
/// next poll and makes the pool skip the queued remainder. All state is a
/// pair of atomics, so charging is wait-free. As a util::CancelSource its
/// poll is exhausted(), so computations that never charge (the sweep-
/// instance state graphs) still notice an expired wall-clock deadline.
/// The wall-clock deadline is armed lazily, at the first exhaustion check
/// (i.e. when the first consumer actually starts work), not at
/// construction: with `ctaver table2` pre-planning every protocol onto one
/// shared pool, a protocol queued behind its siblings must not burn its
/// time budget while waiting for a worker.
class SharedBudget final : public util::CancelSource {
 public:
  /// Why the budget first tripped: the schema cap, the wall-clock deadline,
  /// the RSS watchdog, a SIGINT, or an external cancel() (kNone). First
  /// cause wins; rendered as the `reason=` of each cut obligation's line.
  enum class CutReason : int {
    kNone = 0,
    kSchemas,
    kTime,
    kMemory,
    kInterrupt
  };

  /// `max_rss_mb` is the RSS watchdog cap in MiB (0 = off). A cap past
  /// LLONG_MAX bytes saturates there instead of wrapping, and so does a
  /// time budget past the steady clock's range.
  SharedBudget(long long max_schemas, double time_budget_s,
               long long max_rss_mb = 0)
      : max_(max_schemas),
        time_budget_(util::saturating_duration<Clock::duration>(time_budget_s)),
        max_rss_bytes_(max_rss_mb > (LLONG_MAX >> 20) ? LLONG_MAX
                                                        : max_rss_mb << 20) {}

  /// Reserves `n` schema queries. Returns false (and trips the token) once
  /// the schema or time budget is exhausted. The counter is clamped: a
  /// losing racer leaves `used_` untouched (compare-exchange loop), so
  /// used() never exceeds max_ no matter how many workers charge
  /// concurrently — the previous fetch-add let every loser push the counter
  /// `n` past the cap before noticing the trip.
  bool charge(long long n = 1) {
    if (exhausted()) return false;
    long long cur = used_.load(std::memory_order_relaxed);
    while (cur + n <= max_) {
      if (used_.compare_exchange_weak(cur, cur + n,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
    note_reason(CutReason::kSchemas);
    cancel.cancel();
    return false;
  }

  /// True once the budget is spent, the deadline has passed, or the token
  /// was cancelled; trips the token as a side effect so siblings stop too.
  [[nodiscard]] bool cancelled() const override { return exhausted(); }

  [[nodiscard]] bool exhausted() const {
    if (cancel.cancelled()) return true;
    // SIGINT degrades exactly like an exhausted budget: in-flight siblings
    // unwind as cancelled and the partial report still flushes.
    if (util::interrupted()) {
      note_reason(CutReason::kInterrupt);
      cancel.cancel();
      return true;
    }
    std::call_once(started_, [this] { start_ = Clock::now(); });
    if (used_.load(std::memory_order_relaxed) > max_) {
      note_reason(CutReason::kSchemas);
      cancel.cancel();
      return true;
    }
    // A zero-tick (or non-positive) budget is spent from the start, which
    // the zero-budget test regimes rely on.
    if (time_budget_ == Clock::duration::zero() ||
        Clock::now() - start_ > time_budget_) {
      note_reason(CutReason::kTime);
      cancel.cancel();
      return true;
    }
    // RSS watchdog, throttled to 1/256 of the exhaustion polls (which are
    // themselves throttled: per 256 pivots in the solver, per 1024 states
    // in the game graphs) — a looming OOM becomes a budget-style cut with
    // reason "memory" instead of an allocator abort.
    if (max_rss_bytes_ > 0 &&
        (rss_poll_.fetch_add(1, std::memory_order_relaxed) & 255) == 255 &&
        static_cast<long long>(util::current_rss_bytes()) > max_rss_bytes_) {
      note_reason(CutReason::kMemory);
      cancel.cancel();
      return true;
    }
    return false;
  }

  [[nodiscard]] long long used() const {
    return used_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] CutReason reason() const {
    return static_cast<CutReason>(reason_.load(std::memory_order_relaxed));
  }

  /// Short tag for the human-readable obligation lines ("" for kNone).
  [[nodiscard]] const char* reason_str() const {
    switch (reason()) {
      case CutReason::kNone: return "";
      case CutReason::kSchemas: return "schemas";
      case CutReason::kTime: return "time";
      case CutReason::kMemory: return "memory";
      case CutReason::kInterrupt: return "interrupt";
    }
    return "";
  }

  util::CancelToken cancel;

 private:
  using Clock = std::chrono::steady_clock;

  /// First cause wins: later trips keep the original attribution.
  void note_reason(CutReason r) const {
    int expected = static_cast<int>(CutReason::kNone);
    reason_.compare_exchange_strong(expected, static_cast<int>(r),
                                    std::memory_order_relaxed);
  }

  std::atomic<long long> used_{0};
  long long max_;
  Clock::duration time_budget_;
  long long max_rss_bytes_;
  mutable std::atomic<int> reason_{0};
  mutable std::atomic<std::uint64_t> rss_poll_{0};
  mutable std::once_flag started_;
  mutable Clock::time_point start_{};
};

/// Small-model caps of the schema encoding: every parameter is bounded by
/// kParamCap and every batch count by kBatchCap, the assumption that makes
/// the big-M encoding of falling guards exact. A counterexample is a real
/// schedule regardless, but a VERIFIED verdict is proved only for parameter
/// valuations up to kParamCap = 100,000 and batches up to kBatchCap =
/// 1,000,000; no small-model theorem lifts it past them yet.
inline constexpr long long kParamCap = 100'000;
inline constexpr long long kBatchCap = 1'000'000;

struct CheckOptions {
  /// Use RC-entailment precedence pruning of milestone orders.
  bool prune = true;
  /// Abort after this many schemas (then CheckResult.complete = false).
  long long max_schemas = 5'000'000;
  /// Wall-clock budget in seconds.
  double time_budget_s = 600.0;
  /// Keep one long-lived incremental LIA solver per enumeration subtree:
  /// the obligation-invariant prelude is asserted once, each milestone-
  /// order prefix level lives in a solver scope shared by all of its cut
  /// placements and child prefixes, and per-query constraints are popped
  /// afterwards. Off = rebuild the model from scratch per query (the
  /// pre-incremental behavior, kept as the reference encoder of
  /// IncrementalEncoderMatchesFreshEncoder). Verdicts, reports, and
  /// nschemas are identical either way; only query and pivot counts and
  /// wall-clock differ (the fresh encoder also solves every placement the
  /// incremental one subsumes, see CheckResult::nqueries).
  bool incremental = true;
  /// Enumeration workers inside one check_spec call (0 = hardware
  /// concurrency). The milestone-order tree is split at partition_depth
  /// into disjoint prefix subtrees; workers claim units from a shared
  /// atomic cursor in canonical sibling order and run each claimed unit
  /// level by level to completion (or CE/budget cancellation) with one warm
  /// incremental solver per subtree (prelude plus the subtree's root scopes
  /// replayed on adoption), and the results merge back in the canonical
  /// level-major order. CheckResult — nschemas, the counterexample chosen
  /// (canonically-first wins, re-solved fresh), npivots, everything
  /// rendered into reports — is byte-identical for EVERY value of workers,
  /// within budget. This extends the pipeline's per-obligation determinism
  /// guarantee to within-obligation parallelism.
  int workers = 0;
  /// Depth of the static partition split. Prefixes shorter than this form
  /// the serial "stem" (canonically first at every level); every surviving
  /// prefix of exactly this depth roots one subtree unit. Reports are
  /// byte-identical for any value; only pivot counts shift (per-unit warm
  /// solvers regroup at the split boundary). Query counts do not: the one
  /// query-count input that crosses the split, a root's "ancestors
  /// decided" bit, travels with the root from the stem into its unit, so
  /// equal counts across depths check that hand-off.
  int partition_depth = 2;
  /// Pool to run the enumeration workers on (not owned; may be null, in
  /// which case workers > 1 builds a private pool of workers - 1 threads
  /// for this call). The calling thread always acts as worker 0 and drains
  /// its own enumeration tasks while waiting — so an obligation task
  /// blocked on its subtrees spills into enumeration work instead of
  /// oversubscribing the machine.
  util::ThreadPool* pool = nullptr;
  /// Optional budget shared with sibling obligations. When set, max_schemas
  /// and time_budget_s above are ignored in favour of the shared pool, and
  /// exhaustion anywhere cancels every sibling. Not owned.
  SharedBudget* budget = nullptr;
  /// RSS watchdog cap in MiB (0 = off). Only consulted when this call
  /// builds its own budget; in pipeline mode the shared budget carries it.
  long long max_rss_mb = 0;
  /// Additional cancel source scoped to THIS check only (the pipeline's
  /// per-obligation --obligation-timeout). Tripping it stops this check as
  /// inconclusive — like a budget cut — without touching sibling
  /// obligations. Not owned; may be null.
  const util::CancelSource* extra_cancel = nullptr;
};

struct Counterexample {
  /// Parameter valuation (indexed like sys.env.params).
  std::vector<long long> params;
  /// Milestone order, as guard strings.
  std::vector<std::string> milestones;
  /// Human-readable schedule outline (batch counts per segment).
  std::string text;

  // --- structured schedule, consumed by the replay engine (src/replay) ----

  /// Occupancy of one border location at the round start.
  struct Init {
    bool coin = false;
    ta::LocId loc = -1;
    long long count = 0;
  };
  /// One batch of the concretized schedule: fire `rule` `count` times.
  /// Batches are listed in the exact emission order of the schema encoding
  /// (canonical topological passes per segment, witness points in between),
  /// so replaying them in sequence realizes the schedule the solver found.
  struct Batch {
    bool coin = false;
    ta::RuleId rule = -1;
    long long count = 0;
    int segment = 0;
  };
  std::vector<Init> init;      // border occupancy (count > 0 entries only)
  std::vector<Batch> batches;  // emission order (count > 0 entries only)
  /// Name of the violated spec (Obligation lookup key for replay).
  std::string spec_name;
};

struct CheckResult {
  bool holds = false;     // no counterexample found
  bool complete = false;  // enumeration finished within budget
  long long nschemas = 0; // schemas charged to the budget (incl. skipped)
  /// LIA solver invocations actually made: nschemas plus CE re-solves,
  /// minus the F→G witness placements the incremental encoder subsumes (a
  /// placement whose cuts both precede the prefix's last segment repeats a
  /// decided ancestor's placement under more constraints, so it is charged
  /// but not solved). Subsumption lowers this while nschemas stays put.
  long long nqueries = 0;
  long long npivots = 0;  // simplex pivots spent on those schemas
  double seconds = 0.0;
  std::optional<Counterexample> ce;

  /// Per-enumeration-worker scheduling diagnostics, ThreadPool::stats()
  /// style: how many subtree units each logical worker ran and the simplex
  /// pivots it spent running them (a unit is run start-to-finish by one
  /// worker, so per-unit pivot totals attribute cleanly). The serial stem
  /// (prefixes shorter than partition_depth) is not attributed. Sized to
  /// the worker count actually used; empty when the unit phase never ran.
  /// Purely diagnostic — never rendered into reports, and the only
  /// CheckResult field that legitimately varies with scheduling.
  struct WorkerStat {
    long long units = 0;
    long long pivots = 0;
  };
  std::vector<WorkerStat> per_worker;
};

/// Checks one proof obligation on a single-round, non-probabilistic system
/// (all rules Dirac; run ta::nonprobabilistic + ta::single_round first).
CheckResult check_spec(const ta::System& sys, const spec::Spec& spec,
                       const CheckOptions& opts = {});

/// Enumerates schemas without solving; returns the count (capped at `cap`).
/// This regenerates the paper's Table IV milestone study.
long long count_schemas(const ta::System& sys, const spec::Spec& spec,
                        bool prune, long long cap);

/// Number of milestone guards (deduplicated, flippable) in the system.
int count_milestones(const ta::System& sys, bool prune);

}  // namespace ctaver::schema
