// ctabench: the end-to-end and per-layer benchmark of ctaver.
//
// One process runs one workload (see workloads.cpp) and prints a single JSON
// document on its last stdout line; run.py builds this driver, checks the
// document against the committed reference and prints the result line. The
// driver only uses the library's public entry points, and its tracing is
// bench-side: spans live in the buffer below and the library's own tracer
// (obs::Tracer) is never enabled.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ctabench {

/// Steady-clock seconds.
double now_s();
/// User + system CPU seconds of this process (all threads).
double cpu_s();
/// Returns freed heap memory to the kernel. Called before every unit of
/// work, so memory a unit freed in one thread's malloc arena is not still
/// resident when the next unit grows another arena.
void trim_heap();
/// Peak resident memory of this process so far, in MiB.
double peak_rss_mb();
/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);

/// Bench-side span buffer, used from the driver's main thread only. A span
/// records its name, start, end and enclosing span; self time is a span's
/// duration minus the part its child spans cover.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  class Scope {
   public:
    Scope(Spans* s, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* s_;
    int idx_ = -1;
  };

  [[nodiscard]] Scope open(const char* name) { return Scope(this, name); }

  /// Summed self seconds and number of closed spans named `name`.
  [[nodiscard]] double self_seconds(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Chrome trace-event JSON of every recorded span.
  [[nodiscard]] std::string chrome_json() const;

 private:
  struct Rec {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
  };
  bool on_;
  std::vector<Rec> recs_;
  int current_ = -1;
};

struct Config {
  std::string workload;
  std::string root;      // repository checkout holding src/ and specs/
  std::string work_dir;  // scratch directory owned by this run
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int jobs = 0;     // pool width
  int workers = 0;  // enumeration workers per obligation
};

/// One checked obligation verdict: what the correctness gate compares.
struct ObligationRecord {
  std::string protocol;
  std::string name;
  std::string line;  // verify::obligation_line
  long long nschemas = 0;
  long long nqueries = 0;
  long long npivots = 0;
  std::string ce;  // counterexample text, empty when the obligation holds
  std::string replay;
};

struct Outcome {
  /// End-to-end metrics (untraced) or per-layer metrics (traced).
  std::map<std::string, double> metrics;
  /// Obligations of the first pass, in report order, for the reference check.
  std::vector<ObligationRecord> obligations;
  long long passes = 0;
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> failures;  // first few, human-readable
  std::string trace_json;             // bench-side spans (traced runs only)

  void fail(const std::string& what);
};

Outcome run_workload(const Config& cfg);

}  // namespace ctabench
