// Wall-clock stopwatch, and the seconds-to-duration conversion every
// deadline goes through.
#pragma once

#include <chrono>

namespace ctaver::util {

/// `seconds` as a `Duration`, saturating at Duration::max() where the tick
/// count does not fit (1e10 s is past what int64 nanoseconds hold) instead
/// of wrapping into the past. Non-positive and NaN inputs give zero.
template <typename Duration>
[[nodiscard]] Duration saturating_duration(double seconds) {
  using Period = typename Duration::period;
  const double ticks = seconds * Period::den / Period::num;
  if (!(ticks > 0)) return Duration::zero();
  if (ticks >= static_cast<double>(Duration::max().count())) {
    return Duration::max();
  }
  return Duration(static_cast<typename Duration::rep>(ticks));
}

/// Monotonic stopwatch; starts on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void reset() { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction or last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ctaver::util
