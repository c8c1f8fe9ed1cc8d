// FaultInjector: a test-only WindowEvaluator wrapper that injects faults
// into a running search — expiring a RunContext mid-climb, corrupting
// scores with non-finite values, or forcing estimator degeneracy (score 0).
//
// It powers tests/resilience_test.cc, which proves that partial results are
// still valid non-nested window sets and that the incremental and
// non-incremental variants degrade identically. Production code never
// constructs one; searches expose WrapEvaluatorForTest() to splice it in.

#ifndef TYCOS_SEARCH_FAULT_INJECTOR_H_
#define TYCOS_SEARCH_FAULT_INJECTOR_H_

#include <cstdint>
#include <limits>
#include <memory>

#include "common/run_context.h"
#include "search/evaluator.h"

namespace tycos {

// Faults are keyed on the injector's own 1-based count of Score() calls,
// so a plan is deterministic regardless of wall-clock speed.
struct FaultPlan {
  // Cancels `cancel_context` at the Nth Score() call (-1 disables) — the
  // deterministic stand-in for a deadline expiring mid-climb.
  RunContext* cancel_context = nullptr;
  int64_t cancel_at = -1;

  // Replaces every `corrupt_every`-th score with `corrupt_value`
  // (0 disables). Defaults to NaN: the worst value an estimator could leak.
  int64_t corrupt_every = 0;
  double corrupt_value = std::numeric_limits<double>::quiet_NaN();

  // From the Nth Score() call on, forces 0.0 (-1 disables) — models an
  // estimator gone degenerate (e.g. a sensor flatlining mid-stream).
  int64_t degenerate_from = -1;
};

class FaultInjector : public WindowEvaluator {
 public:
  FaultInjector(std::unique_ptr<WindowEvaluator> inner, const FaultPlan& plan)
      : inner_(std::move(inner)), plan_(plan) {}

  double Score(const Window& w) override;
  int64_t evaluations() const override { return inner_->evaluations(); }
  int64_t degenerate_windows() const override {
    return inner_->degenerate_windows();
  }
  void FlushObsCounters() override { inner_->FlushObsCounters(); }

  int64_t scores_served() const { return scores_served_; }
  int64_t faults_injected() const { return faults_injected_; }

 private:
  std::unique_ptr<WindowEvaluator> inner_;
  FaultPlan plan_;
  int64_t scores_served_ = 0;
  int64_t faults_injected_ = 0;
};

}  // namespace tycos

#endif  // TYCOS_SEARCH_FAULT_INJECTOR_H_
