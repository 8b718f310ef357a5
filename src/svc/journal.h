// Durable run journal: the crash-safety layer under --cache-dir.
//
// The ProofCache is the single durable proof store — every complete verdict
// already survives a crash as a content-addressed entry. What a crash loses
// is the *run bookkeeping*: which run was in flight, which of its
// obligations had already landed durable, and whether it finished. The
// journal records exactly that, as an append-only, fsync'd, per-record-
// checksummed log (`journal.log` in the cache directory):
//
//   ctaver-journal v1                      <- versioned header, own line
//   <sha256hex(payload)> <payload-json>\n  <- one record per line
//
// Record payloads are flat one-line JSON objects (parsed back with
// svc::Json) of three kinds:
//
//   {"rec":"run-start","run":ID,"kind":"verify","name":N,"total":T}
//   {"rec":"obligation","run":ID,"name":N,"key":K,"cached":B}
//   {"rec":"obligation" ...}               one per durable completion; "key"
//                                          is the ProofCache key the verdict
//                                          lives under
//   {"rec":"run-end","run":ID,"exit":E}
//
// ID is journal_run_id(): a sha256 over the run's canonical obligation keys,
// so the same specs + verdict-relevant options always name the same run and
// `--resume` can refuse a mismatched command line instead of silently
// re-proving under different semantics.
//
// Durability discipline: every append is serialized under an exclusive
// flock, written with O_APPEND semantics, and fsync'd before returning; the
// journal file's creation is made durable by fsync'ing the parent
// directory. Opening the journal scans it under the same lock: a torn tail
// (partial line from a killed writer), a checksum mismatch, or an
// unparseable payload truncates the file back to the last intact record —
// recovery never trusts a byte the checksum doesn't vouch for. A file whose
// header is missing or from a different version is reset wholesale (the
// journal is bookkeeping; the proofs it references are in the cache). When
// every run on file has a run-end after its last run-start, the open cuts
// the file back to its header: no run is left to resume, so the next open
// replays nothing. A killed run that is never re-run keeps every record.
//
// Journaling degrades, never fails: an unwritable directory or a failed
// append leaves ok() false / returns false and the verification run
// proceeds without crash-safety.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "svc/json.h"

namespace ctaver::verify {
struct ObligationKey;
}

namespace ctaver::svc {

struct JournalStats {
  std::uint64_t replayed = 0;         // intact records replayed at open
  std::uint64_t truncated_bytes = 0;  // torn/corrupt tail bytes dropped
  std::uint64_t appended = 0;         // records appended by this handle
};

class Journal {
 public:
  /// Opens (creating if needed) `dir`/journal.log and replays it,
  /// truncating any torn or corrupt tail, and the whole file when every
  /// run on it finished. `dir` is the proof-cache directory; it is created
  /// if missing.
  explicit Journal(const std::string& dir);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// False when the journal could not be opened (see error()); every append
  /// is then a no-op returning false and the run proceeds unjournaled.
  [[nodiscard]] bool ok() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// The records that survived the open-time scan, in file order.
  [[nodiscard]] const std::vector<Json>& replayed() const { return replayed_; }
  [[nodiscard]] const JournalStats& stats() const { return stats_; }

  /// Appends one record (payload must be a single line, no '\n') under the
  /// file lock and fsyncs before returning. Thread-safe. Returns false on
  /// any I/O failure — the caller continues; the next open truncates
  /// whatever partial bytes the failure left.
  bool append(const std::string& payload);

  // -- record builders ----------------------------------------------------
  void run_start(const std::string& run_id, const std::string& kind,
                 const std::string& name, std::size_t total);
  void obligation_done(const std::string& run_id, const std::string& name,
                       const std::string& key, bool cached);
  void run_end(const std::string& run_id, int exit_code);

  // -- queries (over the records replayed at open only: this handle's own
  // -- appends show up on the next open). A run id names the same run each
  // -- time its command line is re-run, so each query reads an id's
  // -- records from its last run-start on: a killed re-run of a run that
  // -- once finished is unfinished, and only its own obligations count. ---
  [[nodiscard]] bool run_started(const std::string& run_id) const;
  [[nodiscard]] bool run_finished(const std::string& run_id) const;
  /// Run ids whose last run-start has no run-end after it: the runs a
  /// crash cut short.
  [[nodiscard]] std::size_t unfinished_runs() const;
  /// Distinct ProofCache keys journaled as durable completions of `run_id`.
  [[nodiscard]] std::vector<std::string> run_obligations(
      const std::string& run_id) const;

  static const char* file_name() { return "journal.log"; }

 private:
  void recover();  // open-time scan; caller holds the file lock
  /// Index of `run_id`'s last run-start in replayed_ (0 if it has none).
  [[nodiscard]] std::size_t last_start(const std::string& run_id) const;
  /// A `kind` record of `run_id` at or after its last run-start.
  [[nodiscard]] bool scan_kind_run(const char* kind,
                                   const std::string& run_id) const;

  int fd_ = -1;
  std::string path_;
  std::string error_;
  std::vector<Json> replayed_;
  JournalStats stats_;
  std::mutex mu_;  // serializes this handle's appends
};

/// Deterministic run identity: sha256 over the run's canonical obligation
/// keys (verify::obligation_cache_keys order). Two invocations name the
/// same run exactly when they would prove the same obligations under the
/// same verdict-relevant options — the property `--resume` checks before
/// trusting an unfinished journal entry.
std::string journal_run_id(const std::vector<verify::ObligationKey>& keys);

}  // namespace ctaver::svc
