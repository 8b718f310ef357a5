// Process-wide metrics registry for the verification pipeline.
//
// Design constraints (see README "Observability"):
//  - Out-of-band: nothing read from the registry ever feeds back into a
//    verdict, a schema count, or any other rendered report field, so
//    reports stay byte-identical with metrics on or off.
//  - Cheap when off: every event site costs exactly one predictable branch
//    on a relaxed global flag (see add() below); no shard lookup happens.
//  - Cheap when on: counters live in per-thread shards indexed by enum, so
//    a bump is a TLS load plus one add — no lock, no shared cache line.
//    The cells are std::atomic<uint64_t> written with a relaxed
//    load-add-store by their OWNING thread only; single-writer relaxed
//    atomics compile to the same plain load/add/store as a bare uint64_t
//    (no lock prefix) while keeping the concurrent readers — the progress
//    meter and snapshot() — defined behaviour under TSan.
//  - Deterministic merge: snapshot() sums the shards and reports every
//    metric in canonical name-sorted order, so two quiescent runs that did
//    the same work render the same metrics dump.
//
// Shards are never freed: a thread's shard stays in the registry after the
// thread exits (the pipeline spawns short-lived pool workers whose counts
// must survive into the final merge). reset() zeroes values but keeps the
// shard objects alive, so cached thread-local pointers stay valid.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ctaver::obs {

/// Monotonic steady-clock nanoseconds; shared time base for metrics
/// durations and trace spans.
std::int64_t now_ns();

// Every counter the tree bumps, keyed by enum so the hot path indexes an
// array instead of hashing a name. counter_name() is the single source of
// truth for the rendered names (the metric glossary in the README mirrors
// it).
enum class Counter : int {
  kSolverChecks,        // solver.checks: Solver::check/check_relaxed calls
  kSolverPivots,        // solver.pivots: simplex pivots across all checks
  kSolverBBNodes,       // solver.bb_nodes: branch&bound nodes explored
  kSolverScopes,        // solver.scopes: Solver::push() scopes opened
  kSolverMicros,        // solver.micros: wall micros inside check()
  kSchemaSchemas,       // schema.schemas: schemas charged to the budget
  kSchemaQueries,       // schema.queries: encoder probe/SAT/fresh queries
  kSchemaSubsumed,      // schema.subsumed: placements an ancestor decided
  kSchemaUnits,         // schema.units: subtree units adopted by a worker
  kSchemaUnitLevels,    // schema.unit_levels: per-unit level advances
  kSchemaClaimSkips,    // schema.claim_skips: units skipped at claim (CE)
  kCsGraphs,            // cs.graphs: sweep state graphs built
  kCsStates,            // cs.states: states of the graphs built
  kCsEdges,             // cs.edges: edges (applicable actions) of them
  kCsMicros,            // cs.micros: wall micros building them
  kPoolSubmits,         // pool.submits: tasks enqueued
  kPoolTasksRun,        // pool.tasks_run: tasks executed (workers + spills)
  kPoolTasksSkipped,    // pool.tasks_skipped: dequeued with tripped token
  kPoolSteals,          // pool.steals: tasks taken from a sibling deque
  kPoolGroupSpills,     // pool.group_spills: tasks drained by run_group()
  kVerifyTasksPlanned,  // verify.tasks_planned: obligation/instance tasks
  kVerifyTasksDone,     // verify.tasks_done: obligation tasks finished
  kVerifyObligationMicros,  // verify.obligation_micros: task wall micros
  kVerifyProtocols,     // verify.protocols: protocol reports merged
  kVerifyObligationErrors,  // verify.obligation_errors: contained ERRORs
  kFaultInjections,     // fault.injections: armed fault plans fired
  kWatchdogMemoryCuts,  // watchdog.memory_cuts: RSS guard budget trips
  kWatchdogTimeoutCuts, // watchdog.timeout_cuts: per-obligation deadlines
  kJournalRecords,      // journal.records: records appended (fsync'd)
  kJournalReplayed,     // journal.replayed: intact records replayed at open
  kJournalTruncatedBytes,  // journal.truncated_bytes: torn tail dropped
  kCacheHits,           // cache.hits: obligations satisfied from the cache
  kCacheMisses,         // cache.misses: obligations that had to be proved
  kCacheStores,         // cache.stores: verdicts written into the cache
  kCacheCorrupt,        // cache.corrupt: disk entries rejected (-> miss)
  kCount_,
};
constexpr int kNumCounters = static_cast<int>(Counter::kCount_);
const char* counter_name(Counter c);

enum class Gauge : int {
  kPoolMaxQueueDepth,  // pool.max_queue_depth: high-water deque length
  kCount_,
};
constexpr int kNumGauges = static_cast<int>(Gauge::kCount_);
const char* gauge_name(Gauge g);

// Histograms use power-of-two buckets: bucket 0 holds the value 0 and
// bucket i (i >= 1) holds [2^(i-1), 2^i - 1], i.e. bucket = bit_width(v).
// 64-bit values need buckets 0..64.
enum class Histogram : int {
  kObligationMillis,  // verify.obligation_millis: per-task wall millis
  kCheckPivots,       // solver.check_pivots: pivots per solver check
  kCount_,
};
constexpr int kNumHistograms = static_cast<int>(Histogram::kCount_);
const char* histogram_name(Histogram h);
constexpr int kHistogramBuckets = 65;
int histogram_bucket(std::uint64_t v);

namespace detail {
// The one global the disabled path touches. Relaxed: enabling mid-flight
// only risks missing a few events, never corrupts anything.
inline std::atomic<bool> g_metrics_enabled{false};
void counter_add(Counter c, std::uint64_t n);
void gauge_set_max(Gauge g, std::uint64_t v);
void histogram_observe(Histogram h, std::uint64_t v);
}  // namespace detail

[[nodiscard]] inline bool enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

/// Event sites. Disabled cost: the one branch in enabled(). Enabled cost:
/// one out-of-line call bumping this thread's shard.
inline void add(Counter c, std::uint64_t n = 1) {
  if (enabled()) detail::counter_add(c, n);
}
inline void gauge_max(Gauge g, std::uint64_t v) {
  if (enabled()) detail::gauge_set_max(g, v);
}
inline void observe(Histogram h, std::uint64_t v) {
  if (enabled()) detail::histogram_observe(h, v);
}

struct HistogramSnapshot {
  std::vector<std::uint64_t> buckets;  // kHistogramBuckets entries
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Merged view of every shard, names sorted. per_thread lists each shard's
/// non-zero counters (shard ordinals are assigned in thread-start order, so
/// they are scheduling-dependent — diagnostic only, never compared).
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::uint64_t>> gauges;  // merged: max
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  struct ThreadCounters {
    int thread = 0;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
  };
  std::vector<ThreadCounters> per_thread;

  /// Merged total for a counter name; 0 if absent.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  /// The metrics dump: one JSON object with "counters", "gauges",
  /// "histograms", and "per_thread" sections.
  [[nodiscard]] std::string to_json() const;
  /// Human-readable summary table for `--metrics -`: raw totals plus the
  /// derived health lines (per-worker unit/pivot imbalance, steal rate,
  /// per-obligation time stats).
  [[nodiscard]] std::string to_table() const;
};

class Registry {
 public:
  /// The process-wide registry. Leaky singleton: never destroyed, so shard
  /// pointers cached in thread_local storage outlive static teardown.
  static Registry& global();

  void set_enabled(bool on);
  [[nodiscard]] Snapshot snapshot() const;
  /// Sum of one counter over all shards; what the progress meter polls.
  [[nodiscard]] std::uint64_t counter_total(Counter c) const;
  /// Zeroes every shard (keeping the shard objects, so threads' cached
  /// pointers stay valid). Only meaningful when no instrumented work is in
  /// flight; benches call it between legs.
  void reset();

 private:
  Registry() = default;
};

/// JSON string escaping shared by the metrics dump and trace args.
std::string json_escape(const std::string& s);

}  // namespace ctaver::obs
