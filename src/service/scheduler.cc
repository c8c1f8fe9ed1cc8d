#include "service/scheduler.h"

#include <utility>

#include "common/parallel_for.h"

namespace tycos {
namespace service {

Scheduler::Scheduler(int num_workers) {
  const int n = ResolveThreadCount(num_workers);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { DrainLoop(); });
}

Scheduler::~Scheduler() { Shutdown(); }

bool Scheduler::Submit(const std::string& tenant, Job job) {
  MutexLock lock(&mu_);
  if (shutdown_) return false;
  tenants_[tenant].jobs.push_back(Pending{next_seq_++, std::move(job)});
  ++depth_;
  cv_.NotifyOne();
  return true;
}

int64_t Scheduler::QueueDepth() const {
  MutexLock lock(&mu_);
  return depth_;
}

void Scheduler::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (!shutdown_) {
      shutdown_ = true;
      for (auto& [name, q] : tenants_) q.jobs.clear();
      depth_ = 0;
      cv_.NotifyAll();
    }
  }
  // A concurrent caller blocks in call_once until the joins finish, so no
  // caller returns while a drain loop can still touch the state its jobs
  // reference.
  std::call_once(joined_, [this] {
    for (std::thread& t : workers_) t.join();
  });
}

Scheduler::Pending Scheduler::PopNextLocked() {
  std::map<std::string, TenantQueue>::iterator best = tenants_.end();
  for (auto it = tenants_.begin(); it != tenants_.end(); ++it) {
    if (it->second.jobs.empty()) continue;
    if (best == tenants_.end()) {
      best = it;
      continue;
    }
    // The tenant served least (fair share); then the earliest submission.
    if (it->second.dispatched != best->second.dispatched) {
      if (it->second.dispatched < best->second.dispatched) best = it;
    } else if (it->second.jobs.front().seq < best->second.jobs.front().seq) {
      best = it;
    }
  }
  Pending next = std::move(best->second.jobs.front());
  best->second.jobs.pop_front();
  ++best->second.dispatched;
  --depth_;
  return next;
}

void Scheduler::DrainLoop() {
  for (;;) {
    Pending next;
    {
      MutexLock lock(&mu_);
      while (!shutdown_ && depth_ == 0) cv_.Wait(mu_);
      if (shutdown_) return;
      next = PopNextLocked();
    }
    next.job();
  }
}

}  // namespace service
}  // namespace tycos
