#include "search/brute_force_search.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "search/evaluator.h"

namespace tycos {

BruteForceSearch::BruteForceSearch(Validated, const SeriesPair& pair,
                                   const TycosParams& params,
                                   bool use_incremental_mi)
    : pair_(PrepareForSearch(pair, params)),
      params_(params),
      use_incremental_mi_(use_incremental_mi) {}

BruteForceSearch::BruteForceSearch(const SeriesPair& pair,
                                   const TycosParams& params,
                                   bool use_incremental_mi)
    : BruteForceSearch(
          [&] {
            const Status st = ValidateForSearch(pair, params);
            if (!st.ok()) {
              std::fprintf(stderr, "BruteForceSearch: invalid input: %s\n",
                           st.ToString().c_str());
            }
            TYCOS_CHECK(st.ok());
            return Validated{};
          }(),
          pair, params, use_incremental_mi) {}

Result<std::unique_ptr<BruteForceSearch>> BruteForceSearch::Create(
    const SeriesPair& pair, const TycosParams& params,
    bool use_incremental_mi) {
  const Status st = ValidateForSearch(pair, params);
  if (!st.ok()) return st;
  return std::unique_ptr<BruteForceSearch>(
      new BruteForceSearch(Validated{}, pair, params, use_incremental_mi));
}

int64_t BruteForceSearch::CountFeasibleWindows() const {
  const int64_t n = pair_.size();
  int64_t count = 0;
  for (int64_t tau = -params_.td_max; tau <= params_.td_max; ++tau) {
    const int64_t start_lo = std::max<int64_t>(0, -tau);
    const int64_t end_cap = std::min(n - 1, n - 1 - tau);
    for (int64_t start = start_lo; start + params_.s_min - 1 <= end_cap;
         ++start) {
      const int64_t end_hi = std::min(start + params_.s_max - 1, end_cap);
      const int64_t end_lo = start + params_.s_min - 1;
      if (end_hi >= end_lo) count += end_hi - end_lo + 1;
    }
  }
  return count;
}

BruteForceResult BruteForceSearch::Run() {
  // The no-limit context never stops a run, so the Result is always ok.
  return std::move(Run(RunContext::None()).value());
}

Result<BruteForceResult> BruteForceSearch::Run(const RunContext& ctx) {
  BruteForceResult result;
  std::unique_ptr<WindowEvaluator> evaluator;
  if (use_incremental_mi_) {
    // Threshold 0: unlike the LAHC search, the scanline enumeration visits
    // perfectly overlapping windows back to back, so even tiny windows are
    // cheaper through the incremental state.
    evaluator = std::make_unique<IncrementalEvaluator>(
        pair_, params_, /*small_window_threshold=*/0);
  } else {
    evaluator = std::make_unique<BatchEvaluator>(pair_, params_);
  }

  const int64_t n = pair_.size();
  std::optional<StopReason> stop;
  // Scanline order (delay, start, ascending end) maximizes overlap between
  // consecutive windows for the incremental estimator: each step is a
  // single AddPoint.
  for (int64_t tau = -params_.td_max; tau <= params_.td_max && !stop; ++tau) {
    const int64_t start_lo = std::max<int64_t>(0, -tau);
    const int64_t end_cap = std::min(n - 1, n - 1 - tau);
    for (int64_t start = start_lo; start + params_.s_min - 1 <= end_cap;
         ++start) {
      // Scanline-boundary poll: one scanline is at most s_max - s_min + 1
      // evaluations, bounding how late a fired limit is noticed.
      if ((stop = ctx.ShouldStop(result.windows_evaluated))) break;
      const int64_t end_hi = std::min(start + params_.s_max - 1, end_cap);
      for (int64_t end = start + params_.s_min - 1; end <= end_hi; ++end) {
        Window w(start, end, tau);
        w.mi = evaluator->Score(w);
        if (!std::isfinite(w.mi)) {
          ++result.non_finite_scores;
          w.mi = 0.0;
        }
        ++result.windows_evaluated;
        if (w.mi >= params_.sigma) result.raw.push_back(w);
      }
    }
  }
  // Settle the evaluator's locally tallied work (mi.*, incremental.*) in
  // the registry before it is destroyed.
  evaluator->FlushObsCounters();
  result.merged = MergeOverlapping(result.raw);
  result.partial = stop.has_value();
  result.stop_reason = stop.value_or(StopReason::kCompleted);
  return result;
}

}  // namespace tycos
