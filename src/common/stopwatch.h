// Wall-clock stopwatch used by the benchmark drivers.

#ifndef TYCOS_COMMON_STOPWATCH_H_
#define TYCOS_COMMON_STOPWATCH_H_

#include <chrono>

namespace tycos {

class Stopwatch {
 public:
  Stopwatch() { Restart(); }

  void Restart() { start_ = Clock::now(); }

  // Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tycos

#endif  // TYCOS_COMMON_STOPWATCH_H_
