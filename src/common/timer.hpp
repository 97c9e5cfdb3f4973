// Wall-clock timing for the host-execution path (real kernels, STREAM probe,
// preprocessing-cost ledger). The simulator path produces its own virtual
// times and never touches this.
#pragma once

#include <chrono>

namespace sparta {

/// Monotonic stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Mean wall time of one fn() call over `iterations` calls after one
/// warm-up call: the statistic of every host tuning measurement.
template <class Fn>
double mean_seconds(Fn&& fn, int iterations) {
  fn();
  const Timer t;
  for (int i = 0; i < iterations; ++i) fn();
  return t.seconds() / iterations;
}

}  // namespace sparta
