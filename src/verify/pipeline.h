// End-to-end verification pipeline (Sect. V): given a protocol model, check
//
//   Agreement  — round invariant (Inv1) for v ∈ {0,1} (Prop. 1),
//   Validity   — round invariant (Inv2) for v ∈ {0,1},
//   Almost-sure Termination — the category-specific sufficient conditions:
//       (A) (C1) + (C2)                           [Prop. 2]
//       (B) (C1) + (C2′)                          [Prop. 3]
//       (C) (CB0)–(CB4) + (C2′)                   [Props. 4, 5, Cor. 1]
//
// Non-probabilistic conditions — (Inv1), (Inv2), (C2), (CB0)–(CB4) — are
// discharged *parametrically* by the schema checker (holds for every
// admissible parameter valuation). The probabilistic conditions (C1)/(C2′)
// are equivalent, by Lemma 2, to ∀-adversary ∃-path statements on the
// single-round system; we discharge them on a sweep of explicit parameter
// instances via the outcome-safety game of cs::StateGraph (documented
// substitution: the paper is not explicit about ByMC's encoding of these,
// and a bounded sweep keeps the reproduction honest about what is checked
// parametrically vs. per-instance).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "protocols/protocols.h"
#include "schema/checker.h"

namespace ctaver::util {
class ThreadPool;
}

namespace ctaver::svc {
class ProofCache;
class Journal;
}

namespace ctaver::verify {

struct Options {
  /// Per-obligation schema-checker options. Inside verify_protocol,
  /// schema.max_schemas and schema.time_budget_s fund ONE budget shared by
  /// all of the protocol's obligations (parametric checks and sweep
  /// instances alike): exhaustion anywhere cancels every in-flight sibling
  /// and skips the queued remainder, so a tight budget degrades to
  /// inconclusive obligations instead of a partial serial prefix.
  /// schema.workers = 0 is remapped to 1 per obligation task; an explicit
  /// schema.workers > 1 adds within-obligation (partitioned enumeration)
  /// parallelism. Reports are byte-identical for every (jobs, workers)
  /// combination — each check's partitioned enumeration merges canonically
  /// — so workers is purely a throughput dial for the huge category-(C)
  /// proofs. In async (shared-pool) mode the enumeration workers run as
  /// tasks on the same pool (schema.pool is set internally): a blocked
  /// obligation slot spills into enumeration work instead of the two levels
  /// oversubscribing each other.
  schema::CheckOptions schema;
  /// Run the explicit-instance sweeps for (C1)/(C2′).
  bool run_sweeps = true;
  /// State-space cap per swept instance.
  std::size_t max_states = 2'000'000;
  /// Obligation-scheduler width: every (obligation × sweep-instance) is an
  /// independent task on a work-stealing pool of this many workers
  /// (0 = hardware concurrency, 1 = run inline serially). report_text is
  /// byte-identical for every value of `jobs` as long as the run stays
  /// within budget: results are merged back in canonical
  /// obligation/instance order and each task is internally deterministic.
  int jobs = 0;
  /// Replay every schema counterexample through the concretization engine
  /// (src/replay) and record the ReplayReport summary on the obligation.
  /// Replay is deterministic, so reports stay byte-identical across jobs.
  bool replay_ce = false;
  /// When non-empty, plan only the obligations whose canonical names are
  /// listed (see protocols::obligation_names); everything else is skipped
  /// entirely — no slot, no budget charge. `ctaver check` uses this to
  /// discharge exactly the spec-declared regression surface. A name outside
  /// the category's vocabulary throws std::invalid_argument at planning
  /// time (a silent empty plan would read as "everything verified"); names
  /// that are merely not planned in this run — the sweep obligations under
  /// run_sweeps = false — are still accepted.
  std::vector<std::string> only_obligations;
  /// Content-addressed proof cache (src/svc/proof_cache; not owned, may be
  /// null). When set, planning probes the cache with each obligation's
  /// canonical key (src/verify/cache_key): a hit decodes the stored verdict
  /// into the task's result slot — no task runs, no budget is charged, and
  /// the merge path (including deterministic counterexample replay) renders
  /// the exact bytes a cold run would; a miss proves the obligation
  /// normally and stores a complete verdict the moment it exists (a check
  /// when its task ends, a sweep at merge).
  svc::ProofCache* cache = nullptr;
  /// Not read by the pipeline. A run's marker (src/svc/journal) is written
  /// and removed by whoever starts and ends the run, and what a run proved
  /// is durable through `cache` alone. Kept until ctabench, which still
  /// assigns both fields, drops them.
  svc::Journal* journal = nullptr;
  /// Not read by the pipeline; see `journal`.
  std::string journal_run;
  /// Per-obligation hard deadline in seconds (0 = off), armed when the
  /// obligation's task starts. Tripping it cuts THAT obligation to
  /// inconclusive (cut_reason "obligation-timeout") without touching the
  /// shared budget, so one pathological sweep game cannot starve the run.
  double obligation_timeout_s = 0;
};

/// A contained internal failure: any non-Cancelled exception that escaped an
/// obligation task (or a schema subtree unit) was caught at the task
/// boundary and classified here — the run completes, sibling obligations'
/// report bytes are untouched, and `ctaver` exits 3 instead of aborting.
/// report_text renders it as a `contained error:` line (error_brief).
struct ObligationError {
  /// "injected-fault" (util::InjectedFault), "bad-alloc", "exception"
  /// (any other std::exception), or "unknown".
  std::string kind;
  std::string what;
  /// Fault-point name for injected faults, empty otherwise.
  std::string site;
};

/// One discharged proof obligation.
struct Obligation {
  /// How the obligation's task ended. Distinguishes the two faces of
  /// "inconclusive": kCancelled started and was cut down mid-run by the
  /// shared budget (its seconds are real work), kSkipped never started
  /// (the budget was spent before its slot came up; its seconds are 0).
  /// kError means a non-Cancelled exception escaped the task and was
  /// contained (see `error`); the verdict is inconclusive, never a proof
  /// or refutation. obligation_line renders the non-complete faces. They
  /// are deterministic when the run stays within budget or its budget is
  /// exhausted from the start (every obligation kSkipped); under any other
  /// truncated budget they are time- and scheduling-dependent.
  enum class RunState { kComplete, kCancelled, kSkipped, kError };

  std::string name;
  bool holds = false;
  /// true: proved for all admissible parameters (schema checker);
  /// false: checked on the sweep instances only.
  bool parametric = false;
  bool complete = false;
  RunState run_state = RunState::kSkipped;
  long long nschemas = 0;
  /// LIA solver invocations actually made (nschemas minus the witness
  /// placements subsumed by a decided ancestor, plus CE re-solves). Zero
  /// for sweeps. Informational — never rendered into reports.
  long long nqueries = 0;
  /// Simplex pivots spent by the schema checker on this obligation (zero
  /// for sweeps). Informational — never rendered into reports.
  long long npivots = 0;
  /// Wall time of this obligation's task(s), measured by the scheduler
  /// around the whole task body (sweeps: summed over instances). Unlike the
  /// checker's own seconds this also covers budget-cancelled work, so a
  /// cut-down obligation is attributable in the Table-II time columns; a
  /// skipped one reads 0.
  double seconds = 0.0;
  /// Genuine counterexample text (schema-checker CE or the failing sweep
  /// instances). Empty when the obligation holds or merely ran out of
  /// budget — so a failed obligation with an empty `ce` is inconclusive,
  /// never a refutation.
  std::string ce;
  /// Informational detail (e.g. the swept instance tags); never consulted
  /// for verdicts.
  std::string detail;
  /// Structured schema counterexample (parametric obligations only) — what
  /// the replay engine concretizes. Sweep failures carry instance tags in
  /// `ce` instead and cannot be replayed.
  std::optional<schema::Counterexample> ce_data;
  /// Replay summary when Options.replay_ce was set and this obligation
  /// produced a structured counterexample; empty otherwise. replay_ok means
  /// the concretized schedule was applicable AND re-established the
  /// violation with the LIA solver out of the loop.
  std::string replay;
  bool replay_ok = false;
  /// Per-enumeration-worker scheduling stats of this obligation's
  /// check_spec call (parametric obligations only; empty for sweeps).
  /// Diagnostic, ThreadPool::stats() style — the one field that varies
  /// with scheduling; never rendered into reports.
  std::vector<schema::CheckResult::WorkerStat> per_worker;
  /// Set when run_state == kError (or when the merge-phase replay of a
  /// completed obligation's counterexample failed — then run_state stays
  /// kComplete, the verdict is trustworthy, and only the replay summary is
  /// missing). A set error always drives the process exit code to 3.
  std::optional<ObligationError> error;
  /// Why an incomplete obligation stopped: the shared budget's first cause
  /// ("schemas", "time", "memory", "interrupt") or this obligation's own
  /// deadline ("obligation-timeout"). Empty for complete obligations.
  /// obligation_line renders it as `(reason=...)`; see run_state for when
  /// that is deterministic.
  std::string cut_reason;
  /// This verdict was replayed from the proof cache (Options.cache) instead
  /// of being proved in this run. Provenance only — by the cache's key
  /// contract every rendered field matches what a cold run would produce,
  /// and nothing ever renders this flag into a report.
  bool cached = false;
};

struct PropertyResult {
  std::vector<Obligation> obligations;

  [[nodiscard]] bool holds() const;
  /// True if some obligation produced a genuine counterexample (as opposed
  /// to merely exhausting its budget). Decided by Obligation::ce, so sweep
  /// obligations — whose `detail` is always populated with instance tags —
  /// can still be inconclusive.
  [[nodiscard]] bool has_counterexample() const;
  /// True if some obligation is inconclusive (budget exhausted, no CE).
  [[nodiscard]] bool inconclusive() const;
  /// True if some obligation carries a contained internal error (exit 3).
  [[nodiscard]] bool has_error() const;
  [[nodiscard]] long long nschemas() const;
  [[nodiscard]] double seconds() const;
  /// Counterexample text of the first failing obligation, if any.
  [[nodiscard]] std::string failure() const;
};

struct ProtocolReport {
  std::string protocol;
  protocols::Category category = protocols::Category::kB;
  std::size_t n_locations = 0;  // |L| incl. the coin automaton
  std::size_t n_rules = 0;      // |R| incl. the coin automaton
  PropertyResult agreement;
  PropertyResult validity;
  PropertyResult termination;

  /// At least one obligation was planned and every planned one holds. A
  /// property the plan left without an obligation (only_obligations, or
  /// run_sweeps off) is "not checked", not a failure; `ctaver verify`
  /// exits 0 on this.
  [[nodiscard]] bool planned_hold() const;
};

/// One planned obligation's content address, as `ctaver hash` prints it and
/// the proof cache keys it. `parametric` distinguishes schema-checker
/// obligations from sweep obligations (their payloads differ).
struct ObligationKey {
  std::string name;
  bool parametric = false;
  std::string key;  // 64 lowercase hex chars (sha256)
};

/// Plans `pm`'s obligations (honoring opts.only_obligations / run_sweeps)
/// and returns their cache keys in canonical report order, without running
/// anything. This is the key-derivation path the cache itself uses, so a
/// golden test on these values pins the whole key contract.
std::vector<ObligationKey> obligation_cache_keys(
    const protocols::ProtocolModel& pm, const Options& opts = {});

/// The canonical per-obligation verdict line (no indentation, no trailing
/// newline) — report_text renders each obligation with it, and ctabench
/// compares obligations by it. run_state suffixes and cut reasons render
/// only for incomplete obligations, keeping the line stable across
/// scheduling for complete runs.
std::string obligation_line(const Obligation& o);

/// One-line brief of a contained error: `kind=K [site=S ]what=W`.
std::string error_brief(const ObligationError& e);

/// Runs the full pipeline on one protocol. With opts.jobs != 1 the proof
/// obligations (and the instances inside each sweep) are discharged
/// concurrently on a work-stealing pool; the report is merged back in the
/// serial order regardless.
ProtocolReport verify_protocol(const protocols::ProtocolModel& pm,
                               const Options& opts = {});

/// Handle to an in-flight verify_protocol_async run. finish() blocks until
/// this protocol's tasks have completed on the shared pool, then merges the
/// report in canonical order. Task errors never propagate out of finish():
/// each is contained as a structured ObligationError on its own obligation
/// (run_state kError), and every other obligation's report bytes match an
/// error-free run. Destroying an unfinished run cancels its remaining tasks
/// and waits for the in-flight ones.
class ProtocolRun {
 public:
  ProtocolRun(ProtocolRun&&) noexcept;
  ProtocolRun& operator=(ProtocolRun&&) noexcept;
  ~ProtocolRun();
  ProtocolReport finish();

 private:
  friend ProtocolRun verify_protocol_async(const protocols::ProtocolModel&,
                                           const Options&, util::ThreadPool&);
  friend ProtocolReport verify_protocol(const protocols::ProtocolModel&,
                                        const Options&);
  friend std::vector<ObligationKey> obligation_cache_keys(
      const protocols::ProtocolModel&, const Options&);
  ProtocolRun();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Plans a protocol's obligations and submits every (obligation ×
/// sweep-instance) task to `pool` immediately, returning without waiting.
/// Several protocols submitted to ONE shared pool keep all their tasks in
/// flight together, so a cheap protocol's tail overlaps the next
/// protocol's ramp-up — this is how `ctaver table2` parallelizes across
/// protocols. Each run keeps its own SharedBudget (armed when its first
/// task starts, not at submission) and its own TaskGroup, so per-protocol
/// reports are byte-identical to the serial run's. The pool must outlive
/// the returned handle; opts.jobs is ignored (the pool's width rules).
ProtocolRun verify_protocol_async(const protocols::ProtocolModel& pm,
                                  const Options& opts,
                                  util::ThreadPool& pool);

/// Slot-wise sum of the per-enumeration-worker scheduling stats over every
/// parametric obligation in `report`: slot w aggregates logical worker w of
/// each obligation's check_spec call. Sized to the widest obligation.
/// ctabench and parallel_pipeline_test derive their max/mean unit and
/// pivot imbalance from this.
std::vector<schema::CheckResult::WorkerStat> worker_stats(
    const ProtocolReport& report);

/// The report `ctaver verify` prints, and the byte-identity contract: the
/// header, each property's verdict and obligation lines (with any error
/// brief, `ce`, `detail` and `replay`), then the untimed table2_row. It
/// leaves out `seconds`, `cached`, `per_worker`, `nqueries` and `npivots`.
std::string report_text(const ProtocolReport& report);

/// One row of the paper's Table II; `timed` adds the three time cells
/// (`ctaver table2`).
std::string table2_row(const ProtocolReport& report, bool timed = true);
std::string table2_header(bool timed = true);

}  // namespace ctaver::verify
