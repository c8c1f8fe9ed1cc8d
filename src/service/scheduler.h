// Fair-share job scheduler for the correlation-search service: one FIFO
// queue per tenant, drained by long-lived worker threads the scheduler
// starts in its constructor and joins in Shutdown().
//
// Dispatch order is deterministic given the queue contents: among the
// tenants with pending work, the next job comes from the tenant that has
// been dispatched the FEWEST jobs so far (the fair-share axis — a tenant
// that floods the queue cannot starve a light tenant), ties breaking
// toward the earliest submission. Within one tenant, jobs run in
// submission order.
//
// The scheduler runs opaque closures; deadlines and evaluation budgets are
// the server's concern (it arms each request's RunContext before
// enqueueing). Shutdown() discards jobs still queued — the server sweeps
// its request table to mark them cancelled — and joins the workers.

#ifndef TYCOS_SERVICE_SCHEDULER_H_
#define TYCOS_SERVICE_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"

namespace tycos {
namespace service {

class Scheduler {
 public:
  using Job = std::function<void()>;

  // Starts the worker threads. `num_workers` resolves through
  // ResolveThreadCount (<= 0 = one per hardware thread), so there is always
  // at least one — a scheduler with no workers would strand every job.
  explicit Scheduler(int num_workers);

  // Shutdown().
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Appends a job to the tenant's queue. Returns false (job dropped) after
  // Shutdown().
  bool Submit(const std::string& tenant, Job job) TYCOS_EXCLUDES(mu_);

  // Jobs accepted but not yet started. (Running jobs have left the queue.)
  int64_t QueueDepth() const TYCOS_EXCLUDES(mu_);

  int num_workers() const { return static_cast<int>(workers_.size()); }

  // Stops dispatch: queued jobs are discarded, running jobs finish, worker
  // threads exit and are joined. Idempotent; every caller, concurrent ones
  // included, returns only after the workers have exited. The destructor
  // calls this; call it earlier to bound shutdown latency before tearing
  // down server state the jobs use. Must not be called from a job.
  void Shutdown() TYCOS_EXCLUDES(mu_);

 private:
  struct Pending {
    int64_t seq = 0;  // global submission order, for FIFO tie-breaks
    Job job;
  };
  struct TenantQueue {
    std::deque<Pending> jobs;  // FIFO
    int64_t dispatched = 0;
  };

  void DrainLoop() TYCOS_EXCLUDES(mu_);
  // Picks and removes the next job per the fairness rule; empties are
  // pruned lazily. Precondition: depth_ > 0.
  Pending PopNextLocked() TYCOS_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar cv_;
  // std::map: deterministic iteration order makes the fairness tie-break
  // reproducible across runs.
  std::map<std::string, TenantQueue> tenants_ TYCOS_GUARDED_BY(mu_);
  int64_t depth_ TYCOS_GUARDED_BY(mu_) = 0;
  int64_t next_seq_ TYCOS_GUARDED_BY(mu_) = 0;
  bool shutdown_ TYCOS_GUARDED_BY(mu_) = false;
  std::once_flag joined_;  // Shutdown() joins the workers exactly once
  // Last: the workers start after the state they drain is constructed.
  std::vector<std::thread> workers_;
};

}  // namespace service
}  // namespace tycos

#endif  // TYCOS_SERVICE_SCHEDULER_H_
