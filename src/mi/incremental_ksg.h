// Incremental KSG estimator — the paper's "efficient MI computation"
// (Section 7). Maintains per-point kNN extents and marginal counts for a
// current window and updates them under window edits (grow / shrink / slide)
// instead of recomputing from scratch:
//
//  * Influenced region (IR, Definition 7.1): the L∞ ball of radius
//    d = max(dx, dy) around a point. A point added to / removed from the
//    window changes p's k nearest neighbours iff it lies in IR(p)
//    (Lemmas 3–4) — only then is p's kNN search redone.
//  * Influenced marginal regions (IMR, Definition 7.2): the value strips
//    |x − x_p| <= dx and |y − y_p| <= dy. A point entering/leaving an IMR
//    only bumps the marginal count n_x / n_y (Lemmas 5–6) — an O(1) digamma
//    adjustment, no kNN search.
//
// The running sum Σ[ψ(n_x)+ψ(n_y)] makes the window MI an O(1) read.
// Results are bit-compatible with the batch estimator KsgMi (same
// closed-interval counting semantics and deterministic kNN tie-break).

#ifndef TYCOS_MI_INCREMENTAL_KSG_H_
#define TYCOS_MI_INCREMENTAL_KSG_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/math.h"
#include "core/time_series.h"
#include "core/window.h"
#include "knn/point.h"
#include "knn/rank_index.h"

namespace tycos {

// Counters exposing how much work the incremental path saved; used by tests
// (proving reuse actually happens) and by the ablation micro-benchmark.
struct IncrementalKsgStats {
  int64_t full_rebuilds = 0;       // windows recomputed from scratch
  int64_t incremental_moves = 0;   // windows updated via add/remove deltas
  int64_t points_added = 0;
  int64_t points_removed = 0;
  int64_t knn_recomputes = 0;      // per-point kNN searches from IR hits
  int64_t marginal_updates = 0;    // O(1) IMR count adjustments
  int64_t degenerate_windows = 0;  // constant/non-finite windows scored as 0
};

class IncrementalKsg {
 public:
  // The estimator keeps a reference to `pair`; it must outlive this object.
  IncrementalKsg(const SeriesPair& pair, int k);

  IncrementalKsg(const IncrementalKsg&) = delete;
  IncrementalKsg& operator=(const IncrementalKsg&) = delete;

  // Moves the estimator to window w and returns its MI. Windows sharing the
  // delay of the previous window are updated incrementally by adding and
  // removing edge points; a delay change or a disjoint jump triggers a full
  // rebuild. Returns 0 for windows too small for k (size < k + 2) and for
  // degenerate windows (a constant marginal or any non-finite sample,
  // detected in O(1) from precomputed tables; see stats().degenerate_windows)
  // — the estimator state is left untouched for those, so CurrentMi() keeps
  // describing the last healthy window.
  double SetWindow(const Window& w);

  // MI of the current window (O(1)).
  double CurrentMi() const;

  const IncrementalKsgStats& stats() const { return stats_; }
  int k() const { return k_; }

  // Publishes the incremental.* stats_ fields to the obs registry as deltas
  // since the previous flush. Called by IncrementalEvaluator at run / climb
  // boundaries — never per slide, so the hot path stays atomic-free.
  void FlushObsCounters();

  // kNN extents held for the current window's slot-th point (slot 0 is the
  // window start); lets reference-model tests check the maintained state
  // exactly, where the running ψ-sum only matches to rounding.
  KnnExtents PointExtents(size_t slot) const {
    return {points_.at(slot).dx, points_.at(slot).dy};
  }

  // Test-only fault hook for the audit selftest: perturbs the running ψ-sum
  // the way a real bookkeeping bug would (a missed IMR update, a stale
  // extent), so the incremental-vs-batch differential auditor has a
  // deliberately broken estimator to catch. Never call outside tests.
  void InjectStateDriftForTest(double delta) { sum_psi_ += delta; }

 private:
  struct PointState {
    Point2 p;
    double dx = 0.0;   // kNN extents of this point
    double dy = 0.0;
    int64_t nx = 0;    // marginal counts (self excluded, clamped >= 1)
    int64_t ny = 0;
  };

  int64_t WindowSizeNow() const { return end_ - start_ + 1; }
  Point2 PointAt(int64_t global_index, int64_t delay) const;

  // O(1) hostile-window test against the precomputed per-series tables:
  // true when w selects a constant marginal or any non-finite sample.
  bool DegenerateWindow(const Window& w) const;

  // Full O(m log m) recompute of all state for window w.
  void Rebuild(const Window& w);

  // Incremental edge edits (same delay as current window).
  void AddPoint(int64_t global_index);
  void RemovePoint(int64_t global_index);

  // Recomputes extents + marginals of the point stored at deque slot `slot`
  // against the current active set, adjusting sum_psi_.
  void RecomputePoint(size_t slot);

  // Marginal counts for a probe via the rank indexes (self excluded).
  int64_t CountMarginalX(double x, double dx) const;
  int64_t CountMarginalY(double y, double dy) const;

  // kNN extents of `probe` against all active points, excluding slot
  // `exclude_slot` (pass points_.size() to exclude nothing).
  KnnExtents ScanKnn(const Point2& probe, size_t exclude_slot) const;

  const SeriesPair& pair_;
  const int k_;
  // Lazily grown lookup table; mutable so the O(1) CurrentMi() stays const.
  mutable DigammaTable psi_;

  // Hostile-input tables, one entry per sample: run_start_*_[i] is the
  // smallest j with values j..i all equal (so [s, e] is constant iff
  // run_start[e] <= s), nonfinite_prefix_*_[i+1] counts non-finite samples
  // in [0, i].
  std::vector<int64_t> run_start_x_;
  std::vector<int64_t> run_start_y_;
  std::vector<int64_t> nonfinite_prefix_x_;
  std::vector<int64_t> nonfinite_prefix_y_;

  bool has_window_ = false;
  int64_t start_ = 0;   // current window, global X indices
  int64_t end_ = -1;
  int64_t delay_ = 0;

  // points_[i] corresponds to global X index start_ + i.
  std::deque<PointState> points_;
  RankIndex x_index_;
  RankIndex y_index_;
  // Universe rank of every sample, precomputed once: window edits insert /
  // erase by rank (RankIndex::*AtRank), skipping the per-edit binary
  // search. rank_x_[i] ranks x[i]; rank_y_[i] ranks y[i] (callers add the
  // window delay to reach the y sample).
  std::vector<size_t> rank_x_;
  std::vector<size_t> rank_y_;
  double sum_psi_ = 0.0;  // Σ ψ(nx_i) + ψ(ny_i) over active points

  // Reusable scratch, hoisted out of the per-slide hot path so steady-state
  // add/remove/scan cycles allocate nothing. Each buffer is cleared (never
  // shrunk) at its use site.
  std::vector<size_t> recompute_scratch_;  // IR-hit slots
  std::vector<Point2> rebuild_scratch_;    // window points

  IncrementalKsgStats stats_;
  // Watermark of the last FlushObsCounters(): only field deltas are
  // published, so a flush on an idle estimator is free.
  IncrementalKsgStats flushed_stats_;
};

}  // namespace tycos

#endif  // TYCOS_MI_INCREMENTAL_KSG_H_
