// Content addressing for the proof cache (`--cache-dir`, `ctaver hash`):
// a deterministic canonical serializer for lowered models and specs, and the
// per-obligation cache-key derivation built on it.
//
// The contract: two obligations share a cache key only if the determinism
// guarantee already promises them byte-identical verdicts. The key therefore
// hashes exactly the inputs that can change rendered report bytes —
//
//   * the FULL lowered system the obligation is checked on (environment,
//     resilience, every name, location, rule, guard, update, distribution —
//     names included because counterexample text renders them),
//   * the obligation's spec (shape + premise/conclusion location sets), or
//     for sweep obligations the instance list and the state cap,
//   * the budget class (max_schemas / max_states: a *complete* verdict never
//     depends on the cap, but the caps gate which runs complete, and keying
//     on them keeps a future cache of incomplete verdicts sound),
//   * the one byte-relevant CheckOptions field, prune.
//
// Deliberately EXCLUDED, because the repo's determinism contract proves them
// byte-neutral (tests + CI enforce it): jobs, workers, partition_depth,
// incremental, observability flags, and replay_ce (replay is deterministic
// and recomputed on cache hits).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "schema/checker.h"
#include "spec/spec.h"
#include "ta/model.h"

namespace ctaver::verify {

/// Canonical serialization of a lowered system. Line-oriented, versioned by
/// the caller's key prefix; every semantically meaningful field is rendered
/// (ids in declaration order, which the deterministic lowering pins).
std::string canonical_system(const ta::System& sys);

/// sha256 of canonical_system — the "lowered TA fingerprint" of a key.
std::string system_fingerprint(const ta::System& sys);

/// Canonical serialization of one proof obligation's spec.
std::string canonical_spec(const spec::Spec& spec);

/// Cache key of a parametric (schema-checker) obligation on the system with
/// fingerprint `system_fp`. 64 hex chars.
std::string parametric_cache_key(const std::string& system_fp,
                                 const spec::Spec& spec,
                                 const schema::CheckOptions& opts);

/// Cache key of a sweep obligation (`name` is "C1" or "C2'", which fixes the
/// game; the instance list and state cap are part of the verdict's inputs).
std::string sweep_cache_key(
    const std::string& system_fp, const std::string& name,
    const std::vector<std::vector<long long>>& sweep_params,
    std::size_t max_states);

}  // namespace ctaver::verify
