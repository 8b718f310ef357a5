#include "obs/metrics.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>

namespace ctaver::obs {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kSolverChecks: return "solver.checks";
    case Counter::kSolverPivots: return "solver.pivots";
    case Counter::kSolverBBNodes: return "solver.bb_nodes";
    case Counter::kSolverScopes: return "solver.scopes";
    case Counter::kSolverMicros: return "solver.micros";
    case Counter::kSchemaSchemas: return "schema.schemas";
    case Counter::kSchemaQueries: return "schema.queries";
    case Counter::kSchemaSubsumed: return "schema.subsumed";
    case Counter::kSchemaUnits: return "schema.units";
    case Counter::kSchemaUnitLevels: return "schema.unit_levels";
    case Counter::kSchemaClaimSkips: return "schema.claim_skips";
    case Counter::kCsGraphs: return "cs.graphs";
    case Counter::kCsStates: return "cs.states";
    case Counter::kCsEdges: return "cs.edges";
    case Counter::kCsMicros: return "cs.micros";
    case Counter::kPoolSubmits: return "pool.submits";
    case Counter::kPoolTasksRun: return "pool.tasks_run";
    case Counter::kPoolTasksSkipped: return "pool.tasks_skipped";
    case Counter::kPoolSteals: return "pool.steals";
    case Counter::kPoolGroupSpills: return "pool.group_spills";
    case Counter::kVerifyTasksPlanned: return "verify.tasks_planned";
    case Counter::kVerifyTasksDone: return "verify.tasks_done";
    case Counter::kVerifyObligationMicros: return "verify.obligation_micros";
    case Counter::kVerifyProtocols: return "verify.protocols";
    case Counter::kVerifyObligationErrors:
      return "verify.obligation_errors";
    case Counter::kFaultInjections: return "fault.injections";
    case Counter::kWatchdogMemoryCuts: return "watchdog.memory_cuts";
    case Counter::kWatchdogTimeoutCuts: return "watchdog.timeout_cuts";
    case Counter::kCacheHits: return "cache.hits";
    case Counter::kCacheMisses: return "cache.misses";
    case Counter::kCacheStores: return "cache.stores";
    case Counter::kCacheCorrupt: return "cache.corrupt";
    case Counter::kCount_: break;
  }
  return "?";
}

const char* gauge_name(Gauge g) {
  switch (g) {
    case Gauge::kPoolMaxQueueDepth: return "pool.max_queue_depth";
    case Gauge::kCount_: break;
  }
  return "?";
}

const char* histogram_name(Histogram h) {
  switch (h) {
    case Histogram::kObligationMillis: return "verify.obligation_millis";
    case Histogram::kCheckPivots: return "solver.check_pivots";
    case Histogram::kCount_: break;
  }
  return "?";
}

int histogram_bucket(std::uint64_t v) {
  return v == 0 ? 0 : std::bit_width(v);
}

namespace {

using AtomicU64 = std::atomic<std::uint64_t>;

// Owner-thread bumps use relaxed load-add-store (plain codegen, see the
// header); readers use relaxed loads. bump() is never called by two threads
// on the same cell.
inline void bump(AtomicU64& cell, std::uint64_t n) {
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

struct HistCells {
  std::array<AtomicU64, kHistogramBuckets> buckets{};
  AtomicU64 count{0};
  AtomicU64 sum{0};
  AtomicU64 max{0};
};

struct Shard {
  std::array<AtomicU64, kNumCounters> counters{};
  std::array<AtomicU64, kNumGauges> gauges{};
  std::array<HistCells, kNumHistograms> hists{};
  int ordinal = 0;
};

struct State {
  std::mutex mu;
  std::vector<std::unique_ptr<Shard>> shards;  // append-only, never freed
  int next_ordinal = 0;
};

State& state() {
  static State* s = new State;  // leaky: outlives thread_local teardown
  return *s;
}

Shard& local_shard() {
  thread_local Shard* shard = [] {
    State& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    s.shards.push_back(std::make_unique<Shard>());
    s.shards.back()->ordinal = s.next_ordinal++;
    return s.shards.back().get();
  }();
  return *shard;
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

}  // namespace

namespace detail {

void counter_add(Counter c, std::uint64_t n) {
  bump(local_shard().counters[static_cast<std::size_t>(c)], n);
}

void gauge_set_max(Gauge g, std::uint64_t v) {
  AtomicU64& cell = local_shard().gauges[static_cast<std::size_t>(g)];
  if (v > cell.load(std::memory_order_relaxed)) {
    cell.store(v, std::memory_order_relaxed);
  }
}

void histogram_observe(Histogram h, std::uint64_t v) {
  HistCells& cells = local_shard().hists[static_cast<std::size_t>(h)];
  bump(cells.buckets[static_cast<std::size_t>(histogram_bucket(v))], 1);
  bump(cells.count, 1);
  bump(cells.sum, v);
  if (v > cells.max.load(std::memory_order_relaxed)) {
    cells.max.store(v, std::memory_order_relaxed);
  }
}

}  // namespace detail

Registry& Registry::global() {
  static Registry* r = new Registry;
  return *r;
}

void Registry::set_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t Registry::counter_total(Counter c) const {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::uint64_t total = 0;
  for (const auto& shard : s.shards) {
    total += shard->counters[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }
  return total;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  for (int i = 0; i < kNumCounters; ++i) {
    std::uint64_t total = 0;
    for (const auto& shard : s.shards) {
      total += shard->counters[static_cast<std::size_t>(i)].load(
          std::memory_order_relaxed);
    }
    snap.counters.emplace_back(counter_name(static_cast<Counter>(i)), total);
  }
  for (int i = 0; i < kNumGauges; ++i) {
    std::uint64_t m = 0;
    for (const auto& shard : s.shards) {
      m = std::max(m, shard->gauges[static_cast<std::size_t>(i)].load(
                          std::memory_order_relaxed));
    }
    snap.gauges.emplace_back(gauge_name(static_cast<Gauge>(i)), m);
  }
  for (int i = 0; i < kNumHistograms; ++i) {
    HistogramSnapshot h;
    h.buckets.assign(kHistogramBuckets, 0);
    for (const auto& shard : s.shards) {
      const HistCells& cells = shard->hists[static_cast<std::size_t>(i)];
      for (int b = 0; b < kHistogramBuckets; ++b) {
        h.buckets[static_cast<std::size_t>(b)] +=
            cells.buckets[static_cast<std::size_t>(b)].load(
                std::memory_order_relaxed);
      }
      h.count += cells.count.load(std::memory_order_relaxed);
      h.sum += cells.sum.load(std::memory_order_relaxed);
      h.max = std::max(h.max, cells.max.load(std::memory_order_relaxed));
    }
    snap.histograms.emplace_back(histogram_name(static_cast<Histogram>(i)),
                                 std::move(h));
  }
  for (const auto& shard : s.shards) {
    Snapshot::ThreadCounters tc;
    tc.thread = shard->ordinal;
    for (int i = 0; i < kNumCounters; ++i) {
      std::uint64_t v = shard->counters[static_cast<std::size_t>(i)].load(
          std::memory_order_relaxed);
      if (v != 0) {
        tc.counters.emplace_back(counter_name(static_cast<Counter>(i)), v);
      }
    }
    if (!tc.counters.empty()) snap.per_thread.push_back(std::move(tc));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  std::sort(snap.per_thread.begin(), snap.per_thread.end(),
            [](const auto& a, const auto& b) { return a.thread < b.thread; });
  return snap;
}

void Registry::reset() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  for (auto& shard : s.shards) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& g : shard->gauges) g.store(0, std::memory_order_relaxed);
    for (auto& h : shard->hists) {
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      h.max.store(0, std::memory_order_relaxed);
    }
  }
}

std::uint64_t Snapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return v;
  }
  return 0;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(ch)));
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i ? "," : "") << "\n    \"" << json_escape(counters[i].first)
       << "\": " << u64(counters[i].second);
  }
  os << "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i ? "," : "") << "\n    \"" << json_escape(gauges[i].first)
       << "\": " << u64(gauges[i].second);
  }
  os << "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i].second;
    os << (i ? "," : "") << "\n    \"" << json_escape(histograms[i].first)
       << "\": {\"count\": " << u64(h.count) << ", \"sum\": " << u64(h.sum)
       << ", \"max\": " << u64(h.max) << ", \"buckets\": [";
    // Trim trailing zero buckets; bucket b covers [2^(b-1), 2^b - 1].
    int last = kHistogramBuckets - 1;
    while (last > 0 && h.buckets[static_cast<std::size_t>(last)] == 0) --last;
    for (int b = 0; b <= last; ++b) {
      os << (b ? "," : "") << u64(h.buckets[static_cast<std::size_t>(b)]);
    }
    os << "]}";
  }
  os << "\n  },\n  \"per_thread\": [";
  for (std::size_t i = 0; i < per_thread.size(); ++i) {
    os << (i ? "," : "") << "\n    {\"thread\": " << per_thread[i].thread
       << ", \"counters\": {";
    for (std::size_t j = 0; j < per_thread[i].counters.size(); ++j) {
      os << (j ? ", " : "") << "\""
         << json_escape(per_thread[i].counters[j].first)
         << "\": " << u64(per_thread[i].counters[j].second);
    }
    os << "}}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

namespace {

/// max/mean over the per-thread values of one counter: 1.0 means perfectly
/// balanced work, larger means one thread holds a disproportionate share.
std::string imbalance_line(const Snapshot& snap, const std::string& name) {
  std::vector<std::uint64_t> per;
  for (const auto& tc : snap.per_thread) {
    for (const auto& [n, v] : tc.counters) {
      if (n == name) per.push_back(v);
    }
  }
  if (per.empty()) return "n/a (no samples)";
  std::uint64_t mx = 0, total = 0;
  for (std::uint64_t v : per) {
    mx = std::max(mx, v);
    total += v;
  }
  double mean = static_cast<double>(total) / static_cast<double>(per.size());
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "max/mean = %.2f  (max %llu, mean %.0f over %zu threads)",
                mean > 0 ? static_cast<double>(mx) / mean : 0.0,
                static_cast<unsigned long long>(mx), mean, per.size());
  return buf;
}

}  // namespace

std::string Snapshot::to_table() const {
  std::ostringstream os;
  os << "== metrics (merged over " << per_thread.size()
     << " active threads)\n";
  std::size_t w = 0;
  for (const auto& [n, v] : counters) w = std::max(w, n.size());
  for (const auto& [n, v] : gauges) w = std::max(w, n.size());
  for (const auto& [n, v] : counters) {
    os << "  " << n << std::string(w + 2 - n.size(), ' ') << u64(v) << "\n";
  }
  for (const auto& [n, v] : gauges) {
    os << "  " << n << std::string(w + 2 - n.size(), ' ') << u64(v) << "\n";
  }
  for (const auto& [n, h] : histograms) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "count %llu  mean %.1f  max %llu",
                  static_cast<unsigned long long>(h.count), h.mean(),
                  static_cast<unsigned long long>(h.max));
    os << "  " << n << std::string(w + 2 - n.size(), ' ') << buf << "\n";
  }
  os << "== derived\n";
  {
    std::uint64_t done = counter("verify.tasks_done");
    std::uint64_t planned = counter("verify.tasks_planned");
    double secs =
        static_cast<double>(counter("verify.obligation_micros")) / 1e6;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "  obligation tasks      %llu/%llu done, %.2f s total%s\n",
                  static_cast<unsigned long long>(done),
                  static_cast<unsigned long long>(planned), secs,
                  done < planned ? "  (remainder budget-skipped)" : "");
    os << buf;
  }
  {
    std::uint64_t run = counter("pool.tasks_run");
    std::uint64_t steals = counter("pool.steals");
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "  pool steal rate       %llu/%llu tasks (%.1f%%)\n",
                  static_cast<unsigned long long>(steals),
                  static_cast<unsigned long long>(run),
                  run > 0 ? 100.0 * static_cast<double>(steals) /
                                static_cast<double>(run)
                          : 0.0);
    os << buf;
  }
  os << "  unit imbalance        " << imbalance_line(*this, "schema.units")
     << "\n";
  os << "  pivot imbalance       " << imbalance_line(*this, "solver.pivots")
     << "\n";
  {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "  sweep graphs          %llu built, %llu states, %llu "
                  "edges, %.2f s\n",
                  static_cast<unsigned long long>(counter("cs.graphs")),
                  static_cast<unsigned long long>(counter("cs.states")),
                  static_cast<unsigned long long>(counter("cs.edges")),
                  static_cast<double>(counter("cs.micros")) / 1e6);
    os << buf;
  }
  {
    double solver_s = static_cast<double>(counter("solver.micros")) / 1e6;
    double task_s =
        static_cast<double>(counter("verify.obligation_micros")) / 1e6;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "  solver share          %.2f s of %.2f s task time (%.1f%%)\n",
                  solver_s, task_s,
                  task_s > 0 ? 100.0 * solver_s / task_s : 0.0);
    os << buf;
  }
  return os.str();
}

}  // namespace ctaver::obs
