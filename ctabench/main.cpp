// ctabench driver entry point: argument parsing, the build and width
// guards, the result stamp, and the JSON document run.py consumes.
//
//   ctabench --workload NAME --root DIR --work-dir DIR [--seed N]
//            [--seconds S] [--trace 0|1] [--trace-out FILE]
//            [--jobs N] [--workers N] [--commit ID]
//
// --jobs/--workers default to nproc (both levels share one pool, as
// `ctaver table2` does) and may not exceed it.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"
#include "obs/metrics.h"

#ifndef CTABENCH_BUILD_TYPE
#define CTABENCH_BUILD_TYPE "unknown"
#endif
#ifndef CTABENCH_CXX_FLAGS
#define CTABENCH_CXX_FLAGS ""
#endif

namespace ctabench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void trim_heap() { malloc_trim(0); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

namespace {
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Spans::Scope::Scope(Spans* s, const char* name) : s_(s) {
  if (!s_->on_) return;
  idx_ = static_cast<int>(s_->recs_.size());
  s_->recs_.push_back({name, now_ns(), -1, s_->current_});
  s_->current_ = idx_;
}

Spans::Scope::~Scope() {
  if (idx_ < 0) return;
  Rec& r = s_->recs_[static_cast<std::size_t>(idx_)];
  r.end_ns = now_ns();
  s_->current_ = r.parent;
}

double Spans::self_seconds(const std::string& name) const {
  std::vector<std::int64_t> child_ns(recs_.size(), 0);
  for (const Rec& r : recs_) {
    if (r.parent >= 0 && r.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::int64_t total = 0;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    if (recs_[i].name == name && recs_[i].end_ns >= 0) {
      total += recs_[i].end_ns - recs_[i].start_ns - child_ns[i];
    }
  }
  return static_cast<double>(total) * 1e-9;
}

std::size_t Spans::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(recs_.begin(), recs_.end(), [&](const Rec& r) {
        return r.name == name && r.end_ns >= 0;
      }));
}

std::string Spans::chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  const std::int64_t t0 = recs_.empty() ? 0 : recs_.front().start_ns;
  bool first = true;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Rec& r = recs_[i];
    if (r.end_ns < 0) continue;
    os << (first ? "" : ",") << "{\"name\":\"" << r.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << (r.start_ns - t0) / 1000 << ",\"dur\":" << (r.end_ns - r.start_ns) / 1000
       << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent << "}}";
    first = false;
  }
  os << "]}\n";
  return os.str();
}

void Outcome::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

}  // namespace ctabench

namespace {

using ctaver::obs::json_escape;

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::strstr(CTABENCH_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::cerr << "usage: ctabench --workload catc-proof|catab-sweeps|"
               "cache-reverify --root DIR --work-dir DIR [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out FILE] [--jobs N] "
               "[--workers N] [--commit ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ctabench::Config cfg;
  std::string trace_out, commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") cfg.workload = v;
      else if (a == "--root") cfg.root = v;
      else if (a == "--work-dir") cfg.work_dir = v;
      else if (a == "--seed") cfg.seed = std::stoull(v);
      else if (a == "--seconds") cfg.seconds = std::stod(v);
      else if (a == "--trace") cfg.trace = v == "1";
      else if (a == "--trace-out") trace_out = v;
      else if (a == "--jobs") cfg.jobs = std::stoi(v);
      else if (a == "--workers") cfg.workers = std::stoi(v);
      else if (a == "--commit") commit = v;
      else return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (cfg.workload.empty() || cfg.root.empty() || cfg.work_dir.empty()) {
    return usage();
  }

  const int cores = nproc();
  if (cfg.jobs <= 0) cfg.jobs = cores;
  if (cfg.workers <= 0) cfg.workers = cores;
  if (std::string(CTABENCH_BUILD_TYPE) != "Release" || sanitized()) {
    std::cerr << "ctabench: refusing to measure a " << CTABENCH_BUILD_TYPE
              << (sanitized() ? " sanitizer" : "")
              << " build; configure with -DCMAKE_BUILD_TYPE=Release and no "
                 "-fsanitize flags\n";
    return 2;
  }
  if (cfg.jobs > cores || cfg.workers > cores) {
    std::cerr << "ctabench: --jobs " << cfg.jobs << " / --workers "
              << cfg.workers << " exceed nproc = " << cores << "\n";
    return 2;
  }

  ctabench::Outcome out;
  try {
    out = ctabench::run_workload(cfg);
  } catch (const std::exception& e) {
    std::cerr << "ctabench: " << cfg.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (!trace_out.empty() && !out.trace_json.empty()) {
    std::ofstream(trace_out) << out.trace_json;
  }

  std::ostringstream os;
  os << "{\"stamp\":{\"workload\":\"" << json_escape(cfg.workload)
     << "\",\"seed\":" << cfg.seed << ",\"seconds\":" << num(cfg.seconds)
     << ",\"trace\":" << (cfg.trace ? 1 : 0) << ",\"nproc\":" << cores
     << ",\"jobs\":" << cfg.jobs << ",\"workers\":" << cfg.workers
     << ",\"build_type\":\"" << CTABENCH_BUILD_TYPE
     << "\",\"sanitizer_flags\":\"" << (sanitized() ? "-fsanitize" : "")
     << "\",\"cxx_flags\":\"" << json_escape(CTABENCH_CXX_FLAGS)
     << "\",\"compiler\":\"" << json_escape(__VERSION__) << "\",\"commit\":\""
     << json_escape(commit) << "\"}";
  os << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    os << (first ? "" : ",") << "\"" << name << "\":" << num(value);
    first = false;
  }
  os << "},\"obligations\":[";
  first = true;
  for (const ctabench::ObligationRecord& r : out.obligations) {
    os << (first ? "" : ",") << "{\"protocol\":\"" << json_escape(r.protocol)
       << "\",\"name\":\"" << json_escape(r.name) << "\",\"line\":\""
       << json_escape(r.line) << "\",\"nschemas\":" << r.nschemas
       << ",\"nqueries\":" << r.nqueries << ",\"npivots\":" << r.npivots
       << ",\"ce\":\"" << json_escape(r.ce) << "\",\"replay\":\""
       << json_escape(r.replay) << "\"}";
    first = false;
  }
  os << "],\"passes\":" << out.passes << ",\"attempted\":" << out.attempted
     << ",\"failed\":" << out.failed << ",\"failures\":[";
  first = true;
  for (const std::string& f : out.failures) {
    os << (first ? "" : ",") << "\"" << json_escape(f) << "\"";
    first = false;
  }
  os << "]}";
  std::cout << os.str() << std::endl;
  return 0;
}
