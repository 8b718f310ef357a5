// The kill-based crash harness (ISSUE 10 tentpole): a child process is
// SIGKILLed mid-verification via the fault injector's `abort` action, and
// the parent resumes from the surviving cache + journal, asserting the
// resumed report is byte-identical to an uninterrupted cold run — across
// the (jobs x workers) matrix. Plus the daemon
// legs: a SIGKILLed ctaverd leaves a stale socket + pidfile that a
// restarted daemon cleans up safely (journal replayed, resubmission hits
// the cache), and a second daemon is refused while the first is live.
//
// Deliberately fork-based, so this binary stays OUT of the TSan CI leg
// (fork + sanitizer runtimes don't mix); the TSan-side journal coverage
// lives in svc_journal_test.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "frontend/registry.h"
#include "svc/client.h"
#include "svc/journal.h"
#include "svc/proof_cache.h"
#include "svc/server.h"
#include "util/fault.h"
#include "verify/pipeline.h"

namespace ctaver {
namespace {

namespace fs = std::filesystem;

protocols::ProtocolModel builtin(const std::string& name) {
  return frontend::ProtocolRegistry::with_builtins().make(name);
}

class TempDir {
 public:
  TempDir() {
    path_ = fs::temp_directory_path() /
            ("ctaver_crash_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  static int counter_;
  fs::path path_;
};
int TempDir::counter_ = 0;

std::string unique_socket_path() {
  static int counter = 0;
  return "/tmp/ctaver_crash_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

/// Deterministic report rendering, seconds excluded.
std::string render(const verify::ProtocolReport& r) {
  std::ostringstream os;
  for (const verify::PropertyResult* p :
       {&r.agreement, &r.validity, &r.termination}) {
    for (const verify::Obligation& o : p->obligations) {
      os << verify::obligation_line(o) << " ce=[" << o.ce << "] detail=["
         << o.detail << "]\n";
    }
  }
  return os.str();
}

verify::Options matrix_options(int jobs, int workers) {
  verify::Options opts;
  opts.jobs = jobs;
  opts.schema.workers = workers;
  return opts;
}

/// Forks a child that arms `schema.encode:<hit>:abort` and runs a
/// journaled, cached verification of NaiveVoting — the abort SIGKILLs it
/// mid-run, exactly like `kill -9` at an arbitrary instant. Returns true
/// when the child died by SIGKILL (the harness's precondition).
bool crash_verify_in_child(const std::string& cache_dir, int hit,
                           const verify::Options& base) {
  pid_t pid = ::fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork: " << std::strerror(errno);
    return false;
  }
  if (pid == 0) {
    // Child: no gtest plumbing, no return — only verify, die, or _exit.
    util::FaultInjector::instance().arm("schema.encode", hit,
                                        util::FaultAction::kAbort);
    svc::ProofCache cache(cache_dir);
    svc::Journal journal(cache_dir);
    std::vector<verify::ObligationKey> keys =
        verify::obligation_cache_keys(builtin("NaiveVoting"), base);
    std::string run = svc::journal_run_id(keys);
    verify::Options opts = base;
    opts.cache = &cache;
    if (journal.ok()) {
      journal.run_start(run, "verify", "NaiveVoting", keys.size());
      opts.journal = &journal;
      opts.journal_run = run;
    }
    verify::verify_protocol(builtin("NaiveVoting"), opts);
    ::_exit(0);  // reached only if the fault never fired
  }
  int status = 0;
  EXPECT_EQ(::waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status))
      << "child exited normally with status "
      << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
      << " — the abort fault never fired";
  if (!WIFSIGNALED(status)) return false;
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  return WTERMSIG(status) == SIGKILL;
}

// SIGKILL mid-run, then resume: the journal names the unfinished run, the
// cache holds whatever had reached its durability point, and the resumed
// report is byte-identical to a cold run — for every (jobs, workers) in
// {1,2,8}^2.
TEST(CrashResume, KilledVerifyResumesByteIdenticalAcrossMatrix) {
  protocols::ProtocolModel pm = builtin("NaiveVoting");
  const std::string cold = render(verify::verify_protocol(pm, {}));
  // Hit 12 of schema.encode lands mid-run for NaiveVoting (total hits are
  // deterministic and exceed it); jobs=1 additionally guarantees at least
  // one obligation finished first, exercising partial durability.
  for (int jobs : {1, 2, 8}) {
    for (int workers : {1, 2, 8}) {
      SCOPED_TRACE("jobs=" + std::to_string(jobs) +
                   " workers=" + std::to_string(workers));
      TempDir dir;
      verify::Options base = matrix_options(jobs, workers);
      ASSERT_TRUE(crash_verify_in_child(dir.str(), 12, base));

      // The kill left a torn or intact journal naming one unfinished
      // run whose durable obligations all resolve in the cache.
      svc::Journal journal(dir.str());
      ASSERT_TRUE(journal.ok()) << journal.error();
      std::vector<verify::ObligationKey> keys =
          verify::obligation_cache_keys(pm, base);
      std::string run = svc::journal_run_id(keys);
      EXPECT_EQ(journal.unfinished_runs(), 1u);
      EXPECT_TRUE(journal.run_started(run));
      EXPECT_FALSE(journal.run_finished(run));
      std::vector<std::string> durable = journal.run_obligations(run);
      EXPECT_LT(durable.size(), keys.size());  // the kill was mid-run
      {
        svc::ProofCache probe(dir.str());
        for (const std::string& key : durable) {
          EXPECT_TRUE(probe.lookup(key).has_value()) << key;
        }
      }

      // Resume: re-proves only the non-durable obligations, and the
      // report renders byte-identically to the uninterrupted cold run.
      svc::ProofCache cache(dir.str());  // fresh handle: clean stats
      verify::Options resume = base;
      resume.cache = &cache;
      resume.journal = &journal;
      resume.journal_run = run;
      journal.run_start(run, "verify", pm.name, keys.size());
      verify::ProtocolReport r = verify::verify_protocol(pm, resume);
      journal.run_end(run, 1);
      EXPECT_EQ(render(r), cold);
      // The journal may undercount by one: a kill between a proof's
      // cache store and its journal append leaves the proof durable but
      // unjournaled, and the cache probe (the resume authority) finds it.
      EXPECT_GE(cache.stats().hits, durable.size());
      EXPECT_EQ(cache.stats().hits + cache.stats().misses, keys.size());
      EXPECT_LE(cache.stats().misses, keys.size() - durable.size());
      svc::Journal after(dir.str());
      EXPECT_TRUE(after.run_finished(run));
      EXPECT_EQ(after.unfinished_runs(), 0u);
    }
  }
}

// Sequential jobs=1 at a later hit: at least one obligation must already
// be durable when the kill lands, so resume provably replays (not merely
// re-proves) part of the run.
TEST(CrashResume, PartialDurabilitySurvivesTheKill) {
  protocols::ProtocolModel pm = builtin("NaiveVoting");
  TempDir dir;
  verify::Options base = matrix_options(1, 1);
  ASSERT_TRUE(crash_verify_in_child(dir.str(), 12, base));
  svc::Journal journal(dir.str());
  std::string run =
      svc::journal_run_id(verify::obligation_cache_keys(pm, base));
  std::vector<std::string> durable = journal.run_obligations(run);
  EXPECT_GE(durable.size(), 1u) << "kill landed before any durability point";
  EXPECT_LT(durable.size(), 6u);
  svc::ProofCache cache(dir.str());
  for (const std::string& key : durable) {
    EXPECT_TRUE(cache.lookup(key).has_value()) << key;
  }
}

/// Waits until an AF_UNIX socket accepts a connection (daemon came up).
bool wait_connectable(const std::string& socket_path, int timeout_ms) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd >= 0) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
      int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr));
      ::close(fd);
      if (rc == 0) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

// The daemon path end-to-end: a child ctaverd armed to SIGKILL itself
// mid-submission dies under the client (which fails fast, no hang); the
// parent then restarts a daemon on the SAME socket — the stale socket and
// pidfile from the kill are cleaned up safely because the flock died with
// its holder — and the journal names the unfinished submission, whose
// durable obligations replay from the cache on resubmission.
TEST(CrashResume, KilledDaemonRestartsOnStaleSocketAndResumes) {
  TempDir dir;
  const std::string socket_path = unique_socket_path();
  pid_t pid = ::fork();
  if (pid == 0) {
    // Child daemon: the 12th schema.encode hit SIGKILLs the process while
    // the parent's submission is streaming.
    util::FaultInjector::instance().arm("schema.encode", 12,
                                        util::FaultAction::kAbort);
    svc::ServeOptions so;
    so.socket_path = socket_path;
    so.cache_dir = dir.str();
    svc::Server server(std::move(so));
    std::string err;
    if (!server.start(&err)) ::_exit(3);
    server.run();
    ::_exit(0);
  }
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_connectable(socket_path, 5000)) << "daemon never came up";

  // The submission dies with the daemon: transport failure, exit 2, after
  // fast retries (the daemon is gone, connects fail immediately).
  svc::ClientOptions copts;
  copts.retries = 1;
  copts.backoff_base_s = 0.01;
  copts.io_timeout_s = 10;
  std::ostringstream out, err;
  int code =
      svc::submit_specs(socket_path, {"NaiveVoting"}, out, err, copts);
  EXPECT_EQ(code, 2) << err.str();
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "daemon survived the abort fault";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  // The kill left the socket file and pidfile behind — the stale state a
  // restarted daemon must clean up without refusing.
  EXPECT_EQ(::access(socket_path.c_str(), F_OK), 0);
  EXPECT_EQ(::access((socket_path + ".pid").c_str(), F_OK), 0);

  // Restart on the same socket: start() takes the (dead) pidfile lock,
  // unlinks the stale socket, and replays the journal.
  svc::ServeOptions so;
  so.socket_path = socket_path;
  so.cache_dir = dir.str();
  svc::Server server(std::move(so));
  std::string serr;
  ASSERT_TRUE(server.start(&serr)) << serr;
  ASSERT_NE(server.journal(), nullptr);
  EXPECT_TRUE(server.journal()->ok());
  EXPECT_EQ(server.journal()->unfinished_runs(), 1u);
  std::thread run_thread([&server] { server.run(); });

  // Resubmit: the journaled obligations replay from the cache; the rest
  // re-prove; output matches a direct verify line-for-line.
  std::ostringstream out2, err2;
  EXPECT_EQ(svc::submit_specs(socket_path, {"NaiveVoting"}, out2, err2), 1)
      << err2.str();
  verify::ProtocolReport direct =
      verify::verify_protocol(builtin("NaiveVoting"), {});
  std::vector<std::string> want;
  for (const verify::PropertyResult* p :
       {&direct.agreement, &direct.validity, &direct.termination}) {
    for (const verify::Obligation& o : p->obligations) {
      want.push_back("    " + verify::obligation_line(o));
    }
  }
  std::vector<std::string> got;
  std::istringstream is(out2.str());
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("    ", 0) == 0) got.push_back(line);
  }
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want);

  server.stop();
  run_thread.join();
}

// Clean restart recovery without a kill: a drained daemon's journal shows
// the finished run, and a successor on the same socket + cache replays
// every verdict from the cache.
TEST(CrashResume, RestartedDaemonReplaysFinishedRunsFromCache) {
  TempDir dir;
  const std::string socket_path = unique_socket_path();
  std::string first_out;
  {
    svc::ServeOptions so;
    so.socket_path = socket_path;
    so.cache_dir = dir.str();
    svc::Server server(std::move(so));
    std::string err;
    ASSERT_TRUE(server.start(&err)) << err;
    std::thread t([&server] { server.run(); });
    std::ostringstream out, errs;
    EXPECT_EQ(svc::submit_specs(socket_path, {"NaiveVoting"}, out, errs), 1);
    first_out = out.str();
    server.stop();
    t.join();
  }
  // Pidfile released on clean drain; journal records the complete run.
  EXPECT_NE(::access((socket_path + ".pid").c_str(), F_OK), 0);
  svc::ServeOptions so;
  so.socket_path = socket_path;
  so.cache_dir = dir.str();
  svc::Server server(std::move(so));
  std::string err;
  ASSERT_TRUE(server.start(&err)) << err;
  ASSERT_NE(server.journal(), nullptr);
  EXPECT_EQ(server.journal()->stats().replayed, 8u);  // start + 6 + end
  EXPECT_EQ(server.journal()->unfinished_runs(), 0u);
  std::thread t([&server] { server.run(); });
  std::ostringstream out, errs;
  EXPECT_EQ(svc::submit_specs(socket_path, {"NaiveVoting"}, out, errs), 1);
  EXPECT_EQ(out.str(), first_out);  // pure cache replay, byte-identical
  EXPECT_EQ(server.cache().stats().hits, 6u);
  EXPECT_EQ(server.cache().stats().misses, 0u);
  server.stop();
  t.join();
}

// Single-daemon discipline: while one daemon holds the pidfile flock, a
// second start() on the same socket refuses cleanly — and does NOT yank
// the live daemon's socket out from under it.
TEST(CrashResume, SecondDaemonIsRefusedWhileFirstIsLive) {
  const std::string socket_path = unique_socket_path();
  svc::ServeOptions so;
  so.socket_path = socket_path;
  svc::Server first(std::move(so));
  std::string err;
  ASSERT_TRUE(first.start(&err)) << err;
  std::thread t([&first] { first.run(); });
  ASSERT_TRUE(wait_connectable(socket_path, 5000));

  svc::ServeOptions so2;
  so2.socket_path = socket_path;
  svc::Server second(std::move(so2));
  std::string err2;
  EXPECT_FALSE(second.start(&err2));
  EXPECT_NE(err2.find("another daemon"), std::string::npos) << err2;
  EXPECT_NE(err2.find("refusing to start"), std::string::npos) << err2;

  // The refusal was harmless: the live daemon still answers.
  std::ostringstream out, errs;
  EXPECT_EQ(svc::request_stats(socket_path, out, errs), 0) << errs.str();
  first.stop();
  t.join();
}

}  // namespace
}  // namespace ctaver
