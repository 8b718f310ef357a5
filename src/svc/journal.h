// Run markers: which runs under --cache-dir did not finish.
//
// The ProofCache is the one durable record of what a run proved: every
// complete verdict is a cache entry the moment it exists, and a resumed
// run replays whatever the cache holds. The only thing a crash would
// otherwise lose is that a run was in flight. So a run holds one marker
// file, `<cache-dir>/runs/<run-id>`, from run_start to run_end: run_start
// writes it through svc::write_durable (temp file, fsync, rename,
// directory fsync), and run_end unlinks it and fsyncs the directory. A run
// is unfinished exactly when its marker exists. After any finished run
// `runs/` is empty, after a kill it holds the killed run's marker, and
// nothing under the cache directory grows with history.
//
// The run id is journal_run_id(): a sha256 over the run's canonical
// obligation keys, so the same specs + verdict-relevant options always
// name the same run and `--resume` can refuse a mismatched command line
// instead of silently re-proving under different semantics. Re-running a
// command line rewrites the same marker, so a killed re-run of a run that
// once finished is unfinished.
//
// Markers degrade, never fail: an unusable directory leaves ok() false,
// run_start and run_end are then no-ops, and the run proceeds without
// crash-safety bookkeeping.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ctaver::verify {
struct ObligationKey;
}

namespace ctaver::svc {

class Journal {
 public:
  /// Uses `dir`/runs, creating it if missing. `dir` is the proof-cache
  /// directory.
  explicit Journal(const std::string& dir);

  /// False when `dir`/runs is not a writable directory (see error()).
  [[nodiscard]] bool ok() const { return !runs_.empty(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Writes `run_id`'s marker, which names the run's specs and obligation
  /// count for a reader of the directory. `kind` is not recorded.
  void run_start(const std::string& run_id, const std::string& kind,
                 const std::string& name, std::size_t total);
  /// Removes `run_id`'s marker, if there is one. The exit code is not
  /// recorded.
  void run_end(const std::string& run_id, int exit_code);

  /// `run_id` started and did not end: its marker exists.
  [[nodiscard]] bool unfinished(const std::string& run_id) const;
  /// The number of markers: runs a crash cut short.
  [[nodiscard]] std::size_t unfinished_runs() const;

 private:
  std::string runs_;  // `dir`/runs; empty when unusable
  std::string error_;
};

/// Deterministic run identity: sha256 over the run's canonical obligation
/// keys (verify::obligation_cache_keys order). Two invocations name the
/// same run exactly when they would prove the same obligations under the
/// same verdict-relevant options — the property `--resume` checks before
/// it resumes an unfinished run.
std::string journal_run_id(const std::vector<verify::ObligationKey>& keys);

}  // namespace ctaver::svc
