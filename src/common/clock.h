// Wall-clock helpers and a stopwatch for run-metric timing.

#ifndef QOX_COMMON_CLOCK_H_
#define QOX_COMMON_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace qox {

/// Monotonic now, in microseconds (arbitrary epoch; only deltas matter).
int64_t NowMicros();

/// A simple monotonic stopwatch. Starts running on construction.
class StopWatch {
 public:
  StopWatch() : start_(NowMicros()) {}

  void Restart() { start_ = NowMicros(); }

  /// Microseconds since construction or last Restart().
  int64_t ElapsedMicros() const { return NowMicros() - start_; }

  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedMicros()) / 1e6;
  }

 private:
  int64_t start_;
};

/// Common time unit conversions.
inline constexpr int64_t kMicrosPerMilli = 1000;
inline constexpr int64_t kMicrosPerSecond = 1000 * 1000;
inline constexpr int64_t kMicrosPerMinute = 60 * kMicrosPerSecond;
inline constexpr int64_t kMicrosPerHour = 60 * kMicrosPerMinute;
inline constexpr int64_t kMicrosPerDay = 24 * kMicrosPerHour;

}  // namespace qox

#endif  // QOX_COMMON_CLOCK_H_
