// RunContext: cooperative execution limits for a search run — a monotonic
// deadline, an externally triggered cancellation flag, and an estimator
// evaluation budget.
//
// Searches poll ShouldStop() at climb / neighbourhood / scanline
// boundaries, so a stop request is honored within one window evaluation of
// the trigger and the search can return its best-so-far result instead of
// being killed mid-flight. A default-constructed context imposes no limits
// and its polls are branch-cheap, so drivers thread one unconditionally.
//
// Deliberately mutex-free (so it needs none of the capability annotations
// from common/annotations.h): the only mutation that may race with polls
// is RequestCancel(), a relaxed atomic store. Deadline, budget, and parent
// links are configured before the run starts and read-only after —
// tests/run_context_race_test.cc races the parent chain under TSan.

#ifndef TYCOS_COMMON_RUN_CONTEXT_H_
#define TYCOS_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>

namespace tycos {

// Why a search run ended.
enum class StopReason {
  kCompleted = 0,     // ran to natural completion
  kDeadlineExceeded,  // the RunContext deadline expired
  kCancelled,         // RequestCancel() was called
  kBudgetExhausted,   // the evaluation budget was used up
  kPaused,            // a durable job reached its per-invocation pair cap;
                      // state is checkpointed and the run can be resumed
};

// Human-readable name ("completed", "deadline_exceeded", ...).
const char* StopReasonName(StopReason reason);

// A deadline or cancel: a stop that lands wherever the clock or another
// thread puts it, so the output it cuts is never cached or checkpointed.
inline bool IsTimingDependent(StopReason reason) {
  return reason == StopReason::kDeadlineExceeded ||
         reason == StopReason::kCancelled;
}

// `seconds` after `now`, saturating where a plain duration_cast would be
// undefined (past ~9.2e9 s): +inf or a span past the clock's range never
// arrives (time_point::max()); NaN or a span <= 0 has already expired.
inline std::chrono::steady_clock::time_point DeadlineAfter(
    std::chrono::steady_clock::time_point now, double seconds) {
  using Clock = std::chrono::steady_clock;
  if (!(seconds > 0)) return now;
  // 1 s of slack absorbs the rounding of `room` to double.
  const Clock::duration room = Clock::time_point::max() - now;
  if (seconds >= std::chrono::duration<double>(room).count() - 1.0) {
    return Clock::time_point::max();
  }
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

class RunContext {
 public:
  RunContext() = default;

  // The cancellation flag is shared state between the controlling thread
  // and the search; pass contexts by reference, never by copy.
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;
  RunContext(RunContext&& other) noexcept
      : cancelled_(other.cancelled_.load(std::memory_order_relaxed)),
        deadline_(other.deadline_),
        evaluation_budget_(other.evaluation_budget_),
        parent_(other.parent_) {}

  // A shared no-limit context for callers that don't care.
  static const RunContext& None();

  static RunContext WithDeadline(double seconds) {
    RunContext ctx;
    ctx.SetDeadlineAfter(seconds);
    return ctx;
  }

  static RunContext WithEvaluationBudget(int64_t max_evaluations) {
    RunContext ctx;
    ctx.SetEvaluationBudget(max_evaluations);
    return ctx;
  }

  // Sets the deadline `seconds` from now on the monotonic clock (see
  // DeadlineAfter: +inf never fires, NaN has already expired).
  void SetDeadlineAfter(double seconds) {
    deadline_ = DeadlineAfter(Clock::now(), seconds);
  }

  // Caps the number of estimator evaluations; <= 0 means unlimited. The
  // count is the poller's own (per-search) evaluation counter, so drivers
  // that run several searches apply the budget per search unit.
  void SetEvaluationBudget(int64_t max_evaluations) {
    evaluation_budget_ = max_evaluations > 0 ? max_evaluations : 0;
  }
  // 0 when unlimited. Drivers that run each search unit under a child
  // context read this to fold the caller's budget into the child's.
  int64_t evaluation_budget() const { return evaluation_budget_; }

  // Thread-safe: may be called from another thread while a search runs;
  // every subsequent ShouldStop() poll reports kCancelled.
  void RequestCancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // Links this context under `parent`: every ShouldStop() poll also honors
  // the parent's cancellation and deadline (recursively up the chain), so a
  // global stop reaches a search that is running under a narrower child
  // context. The parent's evaluation *budget* is deliberately not
  // inherited — budgets are counted against the poller's own evaluation
  // counter and would double-apply across levels. The parent must outlive
  // this context; the pair sweep uses this to carve each unit's watchdog
  // time slice out of the global run deadline.
  void SetParent(const RunContext* parent) { parent_ = parent; }
  const RunContext* parent() const { return parent_; }

  bool HasLimits() const {
    return deadline_.has_value() || evaluation_budget_ > 0 ||
           cancel_requested() || (parent_ != nullptr && parent_->HasLimits());
  }

  // nullopt while the run may continue, otherwise the reason to stop.
  // `evaluations_used` is compared against the evaluation budget.
  std::optional<StopReason> ShouldStop(int64_t evaluations_used = 0) const {
    if (parent_ != nullptr) {
      // Budget-free poll: the parent's budget applies to searches polling
      // the parent directly, not to grandchildren with their own counters.
      if (const std::optional<StopReason> s = parent_->ShouldStop(0)) {
        if (*s != StopReason::kBudgetExhausted) return s;
      }
    }
    if (cancel_requested()) return StopReason::kCancelled;
    if (evaluation_budget_ > 0 && evaluations_used >= evaluation_budget_) {
      return StopReason::kBudgetExhausted;
    }
    if (deadline_.has_value() && Clock::now() >= *deadline_) {
      return StopReason::kDeadlineExceeded;
    }
    return std::nullopt;
  }

 private:
  using Clock = std::chrono::steady_clock;

  std::atomic<bool> cancelled_{false};
  std::optional<Clock::time_point> deadline_;
  int64_t evaluation_budget_ = 0;  // 0 = unlimited
  const RunContext* parent_ = nullptr;
};

}  // namespace tycos

#endif  // TYCOS_COMMON_RUN_CONTEXT_H_
