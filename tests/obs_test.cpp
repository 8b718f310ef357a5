// Unit tests for the observability layer (src/obs): registry merge
// determinism under concurrent shard writers, histogram bucket edges, span
// nesting well-formedness, and the disabled-path no-op guarantees.
//
// Registry and Tracer are process-wide leaky singletons shared by every
// test in this binary, so each test enables what it needs, does its work,
// then disables and resets — gtest runs tests serially, so no two tests
// race on the globals.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "svc/json.h"
#include "util/logging.h"
#include "util/stderr_gate.h"

namespace ctaver::obs {
namespace {

class RegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().set_enabled(true);
    Registry::global().reset();
  }
  void TearDown() override {
    Registry::global().set_enabled(false);
    Registry::global().reset();
  }
};

TEST_F(RegistryTest, MergeSumsConcurrentShardsDeterministically) {
  // Short-lived threads bump their own shards and exit before the merge;
  // the snapshot must still see every bump (shards are never freed) and
  // the total must be exact — single-writer shards lose no increments.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        add(Counter::kSolverPivots);
        if (i % 2 == 0) add(Counter::kSchemaSchemas, 3);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  Snapshot snap = Registry::global().snapshot();
  EXPECT_EQ(snap.counter("solver.pivots"), kThreads * kPerThread);
  EXPECT_EQ(snap.counter("schema.schemas"), kThreads * (kPerThread / 2) * 3);
  EXPECT_EQ(Registry::global().counter_total(Counter::kSolverPivots),
            kThreads * kPerThread);
  // Canonical order: every section sorted by name, so two quiescent runs
  // that did the same work render the same dump.
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  EXPECT_TRUE(std::is_sorted(
      snap.histograms.begin(), snap.histograms.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST_F(RegistryTest, GaugeKeepsTheMaximum) {
  gauge_max(Gauge::kPoolMaxQueueDepth, 3);
  gauge_max(Gauge::kPoolMaxQueueDepth, 7);
  gauge_max(Gauge::kPoolMaxQueueDepth, 5);
  Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "pool.max_queue_depth");
  EXPECT_EQ(snap.gauges[0].second, 7u);
}

TEST_F(RegistryTest, HistogramBucketEdges) {
  // Power-of-two buckets: 0 is its own bucket, then bucket i holds
  // [2^(i-1), 2^i - 1], i.e. bucket = bit_width(v).
  EXPECT_EQ(histogram_bucket(0), 0);
  EXPECT_EQ(histogram_bucket(1), 1);
  EXPECT_EQ(histogram_bucket(2), 2);
  EXPECT_EQ(histogram_bucket(3), 2);
  EXPECT_EQ(histogram_bucket(4), 3);
  EXPECT_EQ(histogram_bucket(7), 3);
  EXPECT_EQ(histogram_bucket(8), 4);
  EXPECT_EQ(histogram_bucket(~std::uint64_t{0}), 64);

  for (std::uint64_t v : {0, 1, 2, 3, 4, 7, 8}) {
    observe(Histogram::kCheckPivots, v);
  }
  Snapshot snap = Registry::global().snapshot();
  const HistogramSnapshot* h = nullptr;
  for (const auto& [name, hs] : snap.histograms) {
    if (name == "solver.check_pivots") h = &hs;
  }
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->buckets.size(), std::size_t{kHistogramBuckets});
  EXPECT_EQ(h->buckets[0], 1u);  // {0}
  EXPECT_EQ(h->buckets[1], 1u);  // {1}
  EXPECT_EQ(h->buckets[2], 2u);  // {2, 3}
  EXPECT_EQ(h->buckets[3], 2u);  // {4, 7}
  EXPECT_EQ(h->buckets[4], 1u);  // {8}
  EXPECT_EQ(h->count, 7u);
  EXPECT_EQ(h->sum, 25u);
  EXPECT_EQ(h->max, 8u);
  EXPECT_NEAR(h->mean(), 25.0 / 7.0, 1e-9);
}

TEST_F(RegistryTest, ResetZeroesButKeepsCollecting) {
  add(Counter::kSolverChecks, 5);
  Registry::global().reset();
  EXPECT_EQ(Registry::global().counter_total(Counter::kSolverChecks), 0u);
  // The thread's cached shard pointer must still be valid after reset.
  add(Counter::kSolverChecks, 2);
  EXPECT_EQ(Registry::global().counter_total(Counter::kSolverChecks), 2u);
}

TEST_F(RegistryTest, JsonDumpCarriesEverySection) {
  add(Counter::kSolverPivots, 42);
  gauge_max(Gauge::kPoolMaxQueueDepth, 4);
  observe(Histogram::kObligationMillis, 17);
  std::string json = Registry::global().snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"per_thread\""), std::string::npos);
  EXPECT_NE(json.find("\"solver.pivots\": 42"), std::string::npos);
}

// --metrics-json's contract: the dump is valid JSON with the expected
// sections — svc::Json's parser is the oracle.
TEST_F(RegistryTest, MetricsSnapshotSerializesToValidJson) {
  add(Counter::kCacheHits, 3);
  svc::Json v = svc::Json::parse(Registry::global().snapshot().to_json());
  EXPECT_TRUE(v.is_object());
  EXPECT_TRUE(v["counters"].is_object());
  EXPECT_TRUE(v["gauges"].is_object());
  EXPECT_TRUE(v["histograms"].is_object());
  EXPECT_TRUE(v["per_thread"].is_array());
  EXPECT_EQ(v["counters"]["cache.hits"].as_int(), 3);
}

TEST(RegistryDisabled, EventsAreDropped) {
  Registry::global().set_enabled(false);
  Registry::global().reset();
  add(Counter::kSolverPivots, 100);
  gauge_max(Gauge::kPoolMaxQueueDepth, 9);
  observe(Histogram::kCheckPivots, 9);
  EXPECT_FALSE(enabled());
  EXPECT_EQ(Registry::global().counter_total(Counter::kSolverPivots), 0u);
}

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::global().reset();
    Tracer::global().enable();
  }
  void TearDown() override {
    Tracer::global().disable();
    Tracer::global().reset();
  }
};

/// Checks that one thread's events form a well-nested forest: sorted by
/// (start, longest-first), every event either nests inside the open one or
/// starts after it closed.
void expect_well_nested(const std::vector<Tracer::Event>& events) {
  std::vector<const Tracer::Event*> stack;
  for (const Tracer::Event& e : events) {
    while (!stack.empty() &&
           e.start_ns >= stack.back()->start_ns + stack.back()->dur_ns) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      EXPECT_LE(e.start_ns + e.dur_ns,
                stack.back()->start_ns + stack.back()->dur_ns)
          << e.name << " overlaps " << stack.back()->name
          << " without nesting";
    }
    stack.push_back(&e);
  }
}

TEST_F(TracerTest, SpansNestPerThread) {
  auto burst = [] {
    Span outer("obligation");
    for (int i = 0; i < 3; ++i) {
      Span mid("unit");
      Span inner("query");
      inner.args("\"kind\":\"probe\"");
    }
  };
  std::thread other(burst);
  burst();
  other.join();

  std::vector<Tracer::Event> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 14u);  // 2 threads x (1 + 3 + 3)
  // events() sorts by (tid, start, longest-first): split per tid and check
  // stack discipline.
  for (std::size_t lo = 0; lo < events.size();) {
    std::size_t hi = lo;
    while (hi < events.size() && events[hi].tid == events[lo].tid) ++hi;
    std::vector<Tracer::Event> chunk(events.begin() + lo,
                                     events.begin() + hi);
    expect_well_nested(chunk);
    lo = hi;
  }
  int queries = 0;
  for (const Tracer::Event& e : events) {
    if (std::string(e.name) == "query") {
      ++queries;
      EXPECT_EQ(e.args, "\"kind\":\"probe\"");
    }
  }
  EXPECT_EQ(queries, 6);
}

TEST_F(TracerTest, JsonIsChromeTraceShaped) {
  {
    Span s("obligation");
    s.args("\"protocol\":\"CC85a\"");
  }
  Tracer::global().emit("protocol", 0, 1'000'000, "\"protocol\":\"CC85a\"");
  std::string json = Tracer::global().to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"obligation\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"protocol\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(CompactCount, BoundariesNeverWidenPastTheNextUnit) {
  // The k format truncates (never rounds): its widest rendering is
  // "9999k", one character narrower than the "10000k" the old rounding
  // produced for 9,999,999 — which was wider than the "10.0M" the very
  // next count gets.
  EXPECT_EQ(compact_count(0), "0");
  EXPECT_EQ(compact_count(9'999), "9999");
  EXPECT_EQ(compact_count(10'000), "10k");
  EXPECT_EQ(compact_count(10'999), "10k");  // truncated, not "11k"
  EXPECT_EQ(compact_count(999'999), "999k");
  EXPECT_EQ(compact_count(1'000'000), "1000k");
  EXPECT_EQ(compact_count(9'949'999), "9949k");
  EXPECT_EQ(compact_count(9'999'999), "9999k");  // the old "10000k" bug
  EXPECT_EQ(compact_count(10'000'000), "10.0M");
  EXPECT_EQ(compact_count(10'099'999), "10.0M");  // truncated tenth
  EXPECT_EQ(compact_count(99'999'999), "99.9M");
  EXPECT_EQ(compact_count(123'456'789), "123.4M");
  // Monotone width across the k→M boundary: no value below the boundary
  // renders wider than the boundary value itself.
  EXPECT_LE(compact_count(9'999'999).size(), compact_count(10'000'000).size());
}

TEST(StderrGate, ConcurrentLivePaintsNeverGarbleLogLines) {
  // The regression this gate exists for: the progress meter repaints a
  // \r-overwritten live line while the logger emits \n-terminated lines,
  // and uncoordinated writes interleave mid-line. Race the two through
  // the gate and assert every emitted log line survives intact: in the
  // captured stream, the content of each \n-terminated segment after its
  // final \r must be exactly one well-formed log line (the gate erases
  // the live line first, prints the log line whole, then repaints).
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kDebug);
  constexpr int kLogLines = 100;
  constexpr int kPaints = 400;
  ::testing::internal::CaptureStderr();
  {
    std::atomic<bool> stop{false};
    std::thread meter([&stop] {
      // Alternate wide and narrow live content so repaints exercise the
      // pad-out of stale tail characters.
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::string live = "[meter " + std::to_string(i) + "]";
        if (i % 2 == 0) live += " ================ wide tail ============";
        util::StderrGate::global().update_live(live);
        if (++i >= kPaints) break;
      }
    });
    for (int i = 0; i < kLogLines; ++i) {
      util::log_line(util::LogLevel::kInfo,
                     "interleave probe " + std::to_string(i));
    }
    stop.store(true, std::memory_order_relaxed);
    meter.join();
    util::StderrGate::global().clear_live();
  }
  const std::string captured = ::testing::internal::GetCapturedStderr();
  util::set_log_level(saved);

  int probes = 0;
  std::size_t pos = 0;
  while (pos < captured.size()) {
    const std::size_t nl = captured.find('\n', pos);
    if (nl == std::string::npos) break;
    std::string seg = captured.substr(pos, nl - pos);
    const std::size_t cr = seg.rfind('\r');
    if (cr != std::string::npos) seg = seg.substr(cr + 1);
    // Every \n-terminated segment is a log line: timestamp, level tag,
    // thread ordinal, message — with no live-meter residue glued on.
    EXPECT_GE(seg.size(), 24u) << "garbled line: \"" << seg << "\"";
    EXPECT_TRUE(seg.size() > 4 && seg[4] == '-' && seg.back() != '\r')
        << "garbled line: \"" << seg << "\"";
    EXPECT_NE(seg.find("[info ] "), std::string::npos)
        << "garbled line: \"" << seg << "\"";
    EXPECT_EQ(seg.find("[meter"), std::string::npos)
        << "meter residue in log line: \"" << seg << "\"";
    if (seg.find("interleave probe ") != std::string::npos) ++probes;
    pos = nl + 1;
  }
  // No log line lost, none duplicated, none split across segments.
  EXPECT_EQ(probes, kLogLines);
  // The unterminated tail (if any) is live-meter state, never a log line.
  const std::size_t last_nl = captured.rfind('\n');
  std::string tail = last_nl == std::string::npos
                         ? captured
                         : captured.substr(last_nl + 1);
  EXPECT_EQ(tail.find("interleave probe"), std::string::npos);
}

TEST(StderrGate, ProgressMeterRepaintsThroughTheGate) {
  // End-to-end: a real ProgressMeter repainting from the registry while
  // the logger emits — the CLI's `--progress --log-level debug` path.
  // Same well-formedness contract as above, on the real repaint thread.
  Registry::global().set_enabled(true);
  Registry::global().reset();
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kDebug);
  ::testing::internal::CaptureStderr();
  {
    ProgressMeter meter;
    for (int i = 0; i < 40; ++i) {
      add(Counter::kSolverPivots, 1000);
      util::log_line(util::LogLevel::kDebug,
                     "probe under live meter " + std::to_string(i));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    meter.stop();
  }
  const std::string captured = ::testing::internal::GetCapturedStderr();
  util::set_log_level(saved);
  Registry::global().set_enabled(false);
  Registry::global().reset();

  int probes = 0;
  std::size_t pos = 0;
  while (pos < captured.size()) {
    const std::size_t nl = captured.find('\n', pos);
    if (nl == std::string::npos) break;
    std::string seg = captured.substr(pos, nl - pos);
    const std::size_t cr = seg.rfind('\r');
    if (cr != std::string::npos) seg = seg.substr(cr + 1);
    EXPECT_NE(seg.find("[debug] "), std::string::npos)
        << "garbled line: \"" << seg << "\"";
    if (seg.find("probe under live meter ") != std::string::npos) ++probes;
    pos = nl + 1;
  }
  EXPECT_EQ(probes, 40);
  // stop() must leave the line clear: nothing painted after the last \r.
  const std::size_t last_cr = captured.rfind('\r');
  if (last_cr != std::string::npos) {
    const std::string after = captured.substr(last_cr + 1);
    EXPECT_EQ(after.find_first_not_of(' '), std::string::npos)
        << "stale live line after stop(): \"" << after << "\"";
  }
}

TEST(TracerDisabled, SpansAreFreeAndUnrecorded) {
  Tracer::global().disable();
  Tracer::global().reset();
  {
    Span s("query");
    EXPECT_FALSE(s.active());
  }
  EXPECT_TRUE(Tracer::global().events().empty());
}

}  // namespace
}  // namespace ctaver::obs
