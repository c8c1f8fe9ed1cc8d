// Window evaluators: map a time-delay window to its [0, 1] correlation score
// (normalized MI). Two implementations share one interface so every search
// variant can run with or without the Section 7 incremental computation:
//
//  * BatchEvaluator      — stateless KsgMi per window (TYCOS_L / TYCOS_LN).
//  * IncrementalEvaluator — IncrementalKsg with IR/IMR reuse
//                           (TYCOS_LM / TYCOS_LMN).
//
// CachingEvaluator wraps either with an exact memo table, since overlapping
// neighbourhood shells re-generate the same windows across iterations.

#ifndef TYCOS_SEARCH_EVALUATOR_H_
#define TYCOS_SEARCH_EVALUATOR_H_

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/time_series.h"
#include "core/window.h"
#include "mi/incremental_ksg.h"
#include "search/params.h"

namespace tycos {

class WindowEvaluator {
 public:
  virtual ~WindowEvaluator() = default;

  // Correlation score of w in [0, 1] (normalized MI per the params'
  // normalization mode). Windows smaller than k + 2 score 0, as do
  // degenerate windows (constant marginal, non-finite samples).
  virtual double Score(const Window& w) = 0;

  // Number of MI estimations performed (cache hits excluded).
  virtual int64_t evaluations() const = 0;

  // Number of degenerate windows scored 0 by the estimator guard.
  virtual int64_t degenerate_windows() const { return 0; }

  // Number of Score() calls answered from a memo table.
  virtual int64_t cache_hits() const { return 0; }

  // Publishes this evaluator's locally accumulated work counters to the
  // obs registry (mi.evaluations, mi.cache_hits, mi.degenerate_windows,
  // incremental.*) as deltas since the previous flush. Searches call it
  // once per evaluator stack, when a Tycos unit or a brute-force run ends.
  // Score() adds at most one knn.*.queries count per kNN batch (a KsgMi
  // call or an incremental rebuild), never one per point, which keeps the
  // always-on metrics inside the ≤1% overhead budget.
  // Wrappers must forward to their inner evaluator.
  virtual void FlushObsCounters() {}
};

// Scores each window independently with the batch KSG estimator.
class BatchEvaluator : public WindowEvaluator {
 public:
  // `pair` must outlive the evaluator.
  BatchEvaluator(const SeriesPair& pair, const TycosParams& params);

  double Score(const Window& w) override;
  int64_t evaluations() const override { return evaluations_; }
  int64_t degenerate_windows() const override {
    return diagnostics_.degenerate_windows;
  }
  void FlushObsCounters() override;

 private:
  const SeriesPair& pair_;
  const TycosParams params_;
  KsgDiagnostics diagnostics_;
  int64_t evaluations_ = 0;
  int64_t flushed_evaluations_ = 0;
  int64_t flushed_degenerate_ = 0;
};

// Scores windows through a persistent IncrementalKsg, reusing kNN and
// marginal state across overlapping windows. Windows below
// `small_window_threshold` bypass the incremental state and are scored
// statelessly: for tiny windows a fresh O(m²) estimate is cheaper than
// maintaining IR/IMR state, and skipping them preserves the locality of the
// large-window state across interleaved small probes. The IncrementalKsg
// holds window-local state only: it allocates on the first window at or
// above the threshold, so a search that never scores one never pays for
// it.
class IncrementalEvaluator : public WindowEvaluator {
 public:
  IncrementalEvaluator(const SeriesPair& pair, const TycosParams& params,
                       int64_t small_window_threshold = 96);

  double Score(const Window& w) override;
  int64_t evaluations() const override { return evaluations_; }
  int64_t degenerate_windows() const override {
    return diagnostics_.degenerate_windows +
           incremental_stats().degenerate_windows;
  }
  void FlushObsCounters() override;

  // The estimator's stats; all zero until a window at or above the
  // threshold arrives.
  const IncrementalKsgStats& incremental_stats() const {
    return ksg_.stats();
  }

 private:
  const SeriesPair& pair_;
  const TycosParams params_;
  IncrementalKsg ksg_;
  KsgDiagnostics diagnostics_;  // small-window (stateless) path counters
  int64_t small_window_threshold_;
  int64_t evaluations_ = 0;
  int64_t flushed_evaluations_ = 0;
  int64_t flushed_degenerate_ = 0;
};

// Exact memoization layer over another evaluator.
class CachingEvaluator : public WindowEvaluator {
 public:
  explicit CachingEvaluator(std::unique_ptr<WindowEvaluator> inner,
                            size_t max_entries = 1u << 20);

  double Score(const Window& w) override;
  int64_t evaluations() const override { return inner_->evaluations(); }
  int64_t degenerate_windows() const override {
    return inner_->degenerate_windows();
  }
  int64_t cache_hits() const override { return hits_; }
  void FlushObsCounters() override;

 private:
  // The memo key: a window's full span, compared field by field, so two
  // windows share an entry only when they are the same window, at any
  // series length.
  struct SpanKey {
    int64_t start;
    int64_t end;
    int64_t delay;
    bool operator==(const SpanKey&) const = default;
  };
  struct SpanHash {
    size_t operator()(const SpanKey& k) const noexcept;
  };

  std::unique_ptr<WindowEvaluator> inner_;
  std::unordered_map<SpanKey, double, SpanHash> cache_;
  size_t max_entries_;
  int64_t hits_ = 0;
  int64_t flushed_hits_ = 0;
};

// Builds the evaluator stack for a search: the incremental core when
// `incremental` is set, else the batch core; wrapped in the memo cache when
// params.cache_evaluations is set.
std::unique_ptr<WindowEvaluator> MakeEvaluator(const SeriesPair& pair,
                                               const TycosParams& params,
                                               bool incremental);

}  // namespace tycos

#endif  // TYCOS_SEARCH_EVALUATOR_H_
