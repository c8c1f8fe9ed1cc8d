// The host block every benchmark run prints: where and how the numbers
// were measured. hardware_threads is what the machine has; cpus_allowed is
// what this process may run on (containers and taskset narrow it), which
// is the figure thread counts must be read against.

#ifndef TYCOS_PERFBENCH_HOST_H_
#define TYCOS_PERFBENCH_HOST_H_

#include <sched.h>

#include <cstdio>
#include <thread>

#include "common/simd.h"

#ifndef TYCOS_BENCH_BUILD_TYPE
#define TYCOS_BENCH_BUILD_TYPE "unknown"
#endif

namespace tycos {
namespace perfbench {

// True when assertions are compiled out, i.e. the build is fit for timing.
inline constexpr bool kOptimizedBuild =
#ifdef NDEBUG
    true;
#else
    false;
#endif

inline int CpusAllowed() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

inline void PrintHost() {
  std::printf("host hardware_threads %u\n",
              std::thread::hardware_concurrency());
  std::printf("host cpus_allowed %d\n", CpusAllowed());
  std::printf("host simd %s\n", simd::InstructionSet());
  std::printf("host build_type %s\n", TYCOS_BENCH_BUILD_TYPE);
  std::printf("host ndebug %d\n", kOptimizedBuild ? 1 : 0);
}

}  // namespace perfbench
}  // namespace tycos

#endif  // TYCOS_PERFBENCH_HOST_H_
