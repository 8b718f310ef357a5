// Deterministic fault injection for the containment paths.
//
// The pipeline promises that any non-Cancelled exception escaping an
// obligation (or a schema subtree unit) is contained: the obligation reports
// a structured ERROR and every sibling's report bytes stay untouched. That
// promise is only worth having if the error paths actually run, so the hot
// loops carry named *fault points* — fault_point("lia.pivot") and friends —
// that are a single relaxed load + predicted branch when injection is off
// (the same zero-cost-when-disabled discipline as obs::add) and consult the
// process-wide FaultInjector when armed via --fault-inject.
//
// A plan is "site:count:action": the count-th hit of the named site (1-based,
// counted by a per-site atomic, so exactly one operation fires no matter how
// many threads race the site) performs the action once:
//   throw   raise InjectedFault (a classifiable std::runtime_error carrying
//           the site name) — exercises the ERROR containment path;
//   cancel  raise util::Cancelled — exercises the budget-style inconclusive
//           path (a cancel must never flip a verdict to "complete");
//   delay   sleep a couple of milliseconds and continue — byte-neutral, for
//           racing the containment paths under TSan;
//   abort   die on the spot (SIGKILL, no unwinding, no atexit) — the crash
//           harness for the proof-cache resume path: the
//           process vanishes exactly as an OOM-kill or power loss would,
//           and the crash-resume tests assert the next run's report is
//           byte-identical to an uninterrupted one.
//
// At --jobs/--workers 1 the hit order is the canonical enumeration order, so
// the count selects one reproducible logical operation; at wider settings
// the counter still fires exactly once, on whichever racer takes the
// count-th hit — the containment invariants are what stay width-independent.
#pragma once

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace ctaver::util {

enum class FaultAction { kThrow, kCancel, kDelay, kAbort };

/// What the `throw` action raises. Derives from std::runtime_error so an
/// uncontained escape still prints something sensible; the pipeline's
/// classifier recognizes it and records kind="injected-fault" plus the site.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(std::string site)
      : std::runtime_error("injected fault at " + site),
        site_(std::move(site)) {}
  [[nodiscard]] const std::string& site() const noexcept { return site_; }

 private:
  std::string site_;
};

/// Process-wide injector. All state is per-site atomics; arming is not
/// thread-safe against in-flight hits of the same site (arm before starting
/// work, as the CLI and the tests do).
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// The one global the disabled path reads (see fault_point below).
  [[nodiscard]] static bool armed() {
    return g_armed.load(std::memory_order_relaxed);
  }

  /// Every fault point compiled into the binary, in a fixed order. --help
  /// and the CLI's plan validation render this list.
  [[nodiscard]] static const std::vector<std::string>& sites();

  /// Parses and arms one "site:count:action" plan. Returns false and sets
  /// *error (if non-null) on an unknown site, a non-positive count, or an
  /// unknown action. One plan per site; re-arming a site replaces its plan.
  bool arm(const std::string& plan, std::string* error = nullptr);
  void arm(const std::string& site, long long count, FaultAction action);

  /// Disarms every plan and zeroes the hit counters. Tests pair every arm
  /// with a reset; the injector is process-global state.
  void reset();

  /// Total hits recorded for a site since the last reset (armed or not —
  /// counting starts when the first plan arms the injector).
  [[nodiscard]] long long hits(const std::string& site) const;

  /// Out-of-line slow path of fault_point: count the hit and perform the
  /// armed action if this is the planned occurrence.
  void on_hit(const char* site);

 private:
  FaultInjector() = default;
  static inline std::atomic<bool> g_armed{false};
};

/// A named fault point. Disabled cost: one relaxed load and a predicted
/// branch. Placed at the same throttled poll sites as cancellation, so an
/// armed run pays no more than the cancel polls already do.
inline void fault_point(const char* site) {
  if (FaultInjector::armed()) FaultInjector::instance().on_hit(site);
}

}  // namespace ctaver::util
