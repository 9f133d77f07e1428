#pragma once
// Wall-clock and per-thread CPU timers. Per-rank phase breakdowns are not
// timed here: rt::World derives them from the span trace (obs/analysis).

#include <chrono>
#include <cstdint>
#include <ctime>

namespace gnb {

/// Monotonic wall-clock timer; seconds since construction or last reset().
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Per-thread CPU time in seconds (CLOCK_THREAD_CPUTIME_ID), for the
/// cost-model calibration and kernel micro-benchmarks, where per-thread CPU
/// time is the quantity being measured.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace gnb
