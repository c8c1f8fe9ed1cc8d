#include "common/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace tycos {

int ResolveThreadCount(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int ResolveNestedThreadCount(int requested, int outer_executors) {
  const int resolved = ResolveThreadCount(requested);
  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware = hw > 0 ? static_cast<int>(hw) : 1;
  const int cap = std::max(1, hardware / std::max(1, outer_executors));
  return std::min(resolved, cap);
}

ForStatus ParallelFor(
    int executors, int64_t n, const RunContext& ctx,
    const std::function<std::optional<StopReason>(int64_t)>& body) {
  std::atomic<int64_t> next{0};
  std::atomic<bool> stopped{false};
  std::atomic<int> reason{-1};  // first StopReason recorded, -1 = none

  auto record_stop = [&](StopReason r) {
    int expected = -1;
    reason.compare_exchange_strong(expected, static_cast<int>(r),
                                   std::memory_order_relaxed);
    stopped.store(true, std::memory_order_release);
  };

  // Every executor claims indices in order from the shared counter. A claim
  // below n is always executed, so the executed set stays a prefix even when
  // a stop lands mid-loop.
  auto drain = [&] {
    while (!stopped.load(std::memory_order_acquire)) {
      if (const std::optional<StopReason> s = ctx.ShouldStop()) {
        record_stop(*s);
        break;
      }
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      if (const std::optional<StopReason> s = body(i)) record_stop(*s);
    }
  };

  // The caller is one executor; no point starting more helpers than there
  // are indices beyond its own share.
  const int64_t helpers =
      std::max<int64_t>(std::min<int64_t>(executors, n) - 1, 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(helpers));
  for (int64_t h = 0; h < helpers; ++h) threads.emplace_back(drain);
  drain();
  // The join is the loop's only synchronization with its caller: it orders
  // every body's writes before the caller's merge.
  for (std::thread& t : threads) t.join();

  ForStatus status;
  status.claimed = std::min<int64_t>(n, next.load());
  const int code = reason.load();
  if (code >= 0) status.stop = static_cast<StopReason>(code);
  return status;
}

}  // namespace tycos
