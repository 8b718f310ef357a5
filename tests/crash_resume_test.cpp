// The kill-based crash harness: a child process is SIGKILLed
// mid-verification via the fault injector's `abort` action, and the parent
// resumes from the surviving cache and run marker, asserting the resumed
// report is byte-identical to an uninterrupted cold run — across the
// (jobs x workers) matrix.
//
// Deliberately fork-based, so this binary stays OUT of the TSan CI leg
// (fork + sanitizer runtimes don't mix); the in-process resume coverage
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

/// File names in `dir`.
std::vector<std::string> listing(const fs::path& dir) {
  std::vector<std::string> names;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  return names;
}

/// How many of `keys` a fresh cache handle on `dir` finds: what the
/// killed run made durable.
std::size_t cached_keys(const std::string& dir,
                        const std::vector<verify::ObligationKey>& keys) {
  svc::ProofCache probe(dir);
  std::size_t n = 0;
  for (const verify::ObligationKey& k : keys) {
    if (probe.lookup(k.key)) ++n;
  }
  return n;
}

std::size_t cached_obligations(const verify::ProtocolReport& r) {
  std::size_t n = 0;
  for (const verify::PropertyResult* prop :
       {&r.agreement, &r.validity, &r.termination}) {
    for (const verify::Obligation& o : prop->obligations) n += o.cached;
  }
  return n;
}

verify::Options matrix_options(int jobs, int workers) {
  verify::Options opts;
  opts.jobs = jobs;
  opts.schema.workers = workers;
  return opts;
}

/// Forks a child that arms `schema.encode:<hit>:abort` and runs a
/// cached verification of NaiveVoting under its run marker — the abort
/// SIGKILLs it mid-run, exactly like `kill -9` at an arbitrary instant.
/// Returns true when the child died by SIGKILL (the harness's
/// precondition).
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
    std::vector<verify::ObligationKey> keys =
        verify::obligation_cache_keys(builtin("NaiveVoting"), base);
    svc::Journal(cache_dir).run_start(svc::journal_run_id(keys), "verify",
                                      "NaiveVoting", keys.size());
    verify::Options opts = base;
    opts.cache = &cache;
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

// SIGKILL mid-run, then resume: the marker names the unfinished run, the
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

      // The kill left exactly the run's marker, and whatever the run
      // proved before it in the cache.
      svc::Journal journal(dir.str());
      ASSERT_TRUE(journal.ok()) << journal.error();
      std::vector<verify::ObligationKey> keys =
          verify::obligation_cache_keys(pm, base);
      std::string run = svc::journal_run_id(keys);
      EXPECT_EQ(listing(fs::path(dir.str()) / "runs"),
                std::vector<std::string>{run});
      EXPECT_EQ(journal.unfinished_runs(), 1u);
      EXPECT_TRUE(journal.unfinished(run));
      const std::size_t durable = cached_keys(dir.str(), keys);
      EXPECT_LT(durable, keys.size());  // the kill was mid-run

      // Resume: re-proves only the non-durable obligations, and the
      // report renders byte-identically to the uninterrupted cold run.
      svc::ProofCache cache(dir.str());  // fresh handle: clean stats
      verify::Options resume = base;
      resume.cache = &cache;
      journal.run_start(run, "verify", pm.name, keys.size());
      verify::ProtocolReport r = verify::verify_protocol(pm, resume);
      journal.run_end(run, 1);
      EXPECT_EQ(verify::report_text(r), cold);
      EXPECT_EQ(cache.stats().hits, durable);
      EXPECT_EQ(cache.stats().misses, keys.size() - durable);
      EXPECT_EQ(cached_obligations(r), durable);
      EXPECT_TRUE(listing(fs::path(dir.str()) / "runs").empty());
      EXPECT_FALSE(journal.unfinished(run));
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
  const std::size_t durable =
      cached_keys(dir.str(), verify::obligation_cache_keys(pm, base));
  EXPECT_GE(durable, 1u) << "kill landed before any durability point";
  EXPECT_LT(durable, 6u);
}

}  // namespace
}  // namespace ctaver
