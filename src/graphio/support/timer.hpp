// Wall-clock timing for the runtime experiments (paper Figure 11).
#pragma once

#include <chrono>

namespace graphio {

/// Monotonic wall-clock stopwatch. Starts on construction.
class WallTimer {
 public:
  WallTimer() noexcept : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  /// Elapsed seconds since construction or the last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const noexcept {
    return seconds() * 1e3;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A soft wall-clock budget of `seconds` (0 = none) on `clock`.
struct Deadline {
  WallTimer clock;
  double seconds = 0.0;
  [[nodiscard]] bool expired() const noexcept {
    return seconds > 0.0 && clock.seconds() >= seconds;
  }
};

}  // namespace graphio
