// ThreadPool: a fixed-size task-queue thread pool plus a RunContext-aware
// ParallelFor helper — the execution substrate of the parallel search
// engine (pairwise fan-out, multi-restart climbs, bench drivers).
//
// Determinism contract: ParallelFor claims indices in order from a shared
// counter, so the set of executed indices is always a prefix [0, claimed).
// Callers that store per-index results into pre-sized slots and merge them
// in index order after the loop get results that are bit-identical at any
// thread count. Deadline / cancellation stops propagate to every worker:
// once the RunContext fires (or a body reports a stop), no new indices are
// claimed; indices already claimed always run to completion, so a slot is
// never left torn.

#ifndef TYCOS_COMMON_THREAD_POOL_H_
#define TYCOS_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/run_context.h"

namespace tycos {

class ThreadPool {
 public:
  // Spawns `num_workers` background threads. 0 is valid: the pool then has
  // no threads and ParallelFor runs entirely inline on the calling thread —
  // the exact sequential reference path.
  explicit ThreadPool(int num_workers);

  // Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task for the workers; CHECKs when the pool has none (a task
  // submitted to an empty pool would never run).
  void Submit(std::function<void()> task) TYCOS_EXCLUDES(mu_);

  // Maps a user-facing thread-count request to an executor count:
  // >= 1 is taken as given, <= 0 means one executor per hardware thread.
  static int ResolveThreadCount(int requested);

  // Executor width for an engine pool nested INSIDE another pool's worker.
  // The one nested site is the service (service/server.cc): each scheduler
  // worker runs one engine, whose multi-restart pool is sized with this;
  // pair sweeps never nest (SweepPairs). `requested` resolves as
  // ResolveThreadCount, then outer_executors × inner width is capped at the
  // hardware thread count (at most max(1, hw / outer_executors) inner
  // executors). Results are unaffected, only wall-clock. See DESIGN.md
  // "Threading model".
  static int ResolveNestedThreadCount(int requested, int outer_executors);

  struct ForStatus {
    int64_t claimed = 0;  // indices executed — always the prefix [0, claimed)
    std::optional<StopReason> stop;  // first stop observed, if any
  };

  // Runs body(i) for i in [0, n), fanning across the workers with the
  // calling thread participating (so a pool with W workers gives W + 1
  // executors). Before claiming each index, every executor polls `ctx`;
  // a deadline / cancellation there — or a StopReason returned by a body —
  // halts all further claims. The first stop observed is reported back.
  // Bodies for distinct indices run concurrently and must not share mutable
  // state; all body effects are visible to the caller on return.
  //
  // Must not be called from inside a task of the same pool.
  ForStatus ParallelFor(
      int64_t n, const RunContext& ctx,
      const std::function<std::optional<StopReason>(int64_t)>& body);

 private:
  void WorkerLoop() TYCOS_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ TYCOS_GUARDED_BY(mu_);
  bool shutdown_ TYCOS_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace tycos

#endif  // TYCOS_COMMON_THREAD_POOL_H_
