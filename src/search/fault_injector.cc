#include "search/fault_injector.h"

namespace tycos {

double FaultInjector::Score(const Window& w) {
  double score = inner_->Score(w);
  ++scores_served_;
  if (plan_.cancel_context != nullptr && scores_served_ == plan_.cancel_at) {
    plan_.cancel_context->RequestCancel();
    ++faults_injected_;
  }
  if (plan_.degenerate_from >= 0 && scores_served_ >= plan_.degenerate_from) {
    ++faults_injected_;
    return 0.0;
  }
  if (plan_.corrupt_every > 0 && scores_served_ % plan_.corrupt_every == 0) {
    ++faults_injected_;
    return plan_.corrupt_value;
  }
  return score;
}

}  // namespace tycos
