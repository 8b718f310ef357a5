// The kill-based crash harness (ISSUE 10 tentpole): a child process is
// SIGKILLed mid-verification via the fault injector's `abort` action, and
// the parent resumes from the surviving cache + journal, asserting the
// resumed report is byte-identical to an uninterrupted cold run — across
// the (jobs x workers) matrix.
//
// Deliberately fork-based, so this binary stays OUT of the TSan CI leg
// (fork + sanitizer runtimes don't mix); the TSan-side journal coverage
// lives in svc_journal_test.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "frontend/registry.h"
#include "svc/journal.h"
#include "svc/proof_cache.h"
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
  const std::string cold = verify::report_text(verify::verify_protocol(pm, {}));
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
      EXPECT_EQ(verify::report_text(r), cold);
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

}  // namespace
}  // namespace ctaver
