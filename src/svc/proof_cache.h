// Content-addressed proof cache: obligation verdicts keyed by the canonical
// hashes of src/verify/cache_key. The cache stores *decoded-verdict inputs*,
// not rendered text: a parametric hit is decoded back into the
// schema::CheckResult the merge path would have produced, and a sweep hit
// into the merged verdict fields — so every downstream byte (obligation
// lines, Table-II rows, deterministic counterexample replay) is produced by
// the same unmodified code as a cold run, and byte-identity is inherited
// rather than re-proven.
//
// Layers:
//  - in-memory map (always on), mutex-guarded;
//  - optional disk directory (one file per key, versioned header + payload
//    sha256). Any mismatch — bad header, wrong key, short read, checksum —
//    degrades to a miss and bumps cache.corrupt; a lookup never trusts a
//    corrupt entry and never fails on one.
//
// Only COMPLETE, error-free verdicts are stored (an incomplete verdict is a
// statement about a budget race, not about the obligation).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "schema/checker.h"

namespace ctaver::svc {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t corrupt = 0;
};

class ProofCache {
 public:
  /// `disk_dir` empty = in-memory only. The directory is created on first
  /// store if missing.
  explicit ProofCache(std::string disk_dir = "");

  /// Payload for `key`, consulting memory then disk. Bumps hits/misses
  /// (and obs cache.hits/cache.misses).
  std::optional<std::string> lookup(const std::string& key);

  /// Stores payload under key (memory + disk when configured). Disk writes
  /// go through write_durable, so a crashed (or SIGKILLed, or power-lost)
  /// process leaves either the old entry or the new one, never a torn or
  /// named-but-empty file.
  void store(const std::string& key, const std::string& payload);

  /// Drops an entry whose payload passed the checksum but failed to decode
  /// (e.g. written by a different build with an incompatible codec).
  /// Counted as corrupt; the caller proceeds as on a miss.
  void invalidate(const std::string& key);

  [[nodiscard]] CacheStats stats() const;

 private:
  std::optional<std::string> disk_lookup(const std::string& key);
  void disk_store(const std::string& key, const std::string& payload);

  std::string disk_dir_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::string> mem_;
  CacheStats stats_;
};

/// Writes `bytes` to `path` so that a crash at any instant leaves either
/// the old file or the new one: a temp file beside `path`, fsync, rename
/// over `path`, then an fsync of the parent directory. False on any
/// failure, with the temp file removed. Cache entries and run markers
/// (src/svc/journal) are both written through it.
bool write_durable(const std::string& path, const std::string& bytes);

/// fsyncs the directory `dir`, making a create, rename or unlink in it
/// durable. An unopenable directory is skipped.
void sync_dir(const std::string& dir);

// --- verdict payload codecs --------------------------------------------
// Length-prefixed text records; decoders return nullopt on ANY malformed
// input (the pipeline then treats the entry as corrupt). per_worker is
// deliberately not stored: it is the one CheckResult field that varies with
// scheduling and is never rendered into reports.

/// Merged verdict of a sweep obligation (C1/C2'), as the pipeline's merge
/// step leaves it on the Obligation.
struct SweepVerdict {
  bool holds = false;
  bool complete = false;
  std::string ce;
  std::string detail;
};

std::string encode_check(const schema::CheckResult& r);
std::optional<schema::CheckResult> decode_check(const std::string& payload);
std::string encode_sweep(const SweepVerdict& v);
std::optional<SweepVerdict> decode_sweep(const std::string& payload);

}  // namespace ctaver::svc
