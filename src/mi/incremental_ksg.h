// Incremental KSG estimator — the paper's "efficient MI computation"
// (Section 7). Maintains per-point kNN state and marginal counts for a
// current window and updates them under window edits (grow / shrink / slide)
// instead of recomputing from scratch:
//
//  * Influenced region (IR, Definition 7.1): the L∞ ball of radius
//    d = max(dx, dy) around a point. A point added to / removed from the
//    window can change p's k nearest neighbours only if it lies in IR(p)
//    (Lemmas 3–4). Every point stores its k nearest neighbours as
//    (distance, global X index) entries in the kNN tie order, so an added
//    point that precedes p's k-th entry is inserted in O(k) with no search;
//    only the removal of one of p's k neighbours makes p search again.
//  * Influenced marginal regions (IMR, Definition 7.2): the value strips
//    |x − x_p| <= dx and |y − y_p| <= dy. A point entering/leaving an IMR
//    only moves the integer marginal count n_x / n_y by ±1 (Lemmas 5–6).
//
// Each edit computes one vectorized distance row from the edited point to
// the window, which feeds both the IR/IMR pass and the added point's own
// kNN selection. CurrentMi() sums ψ(n_x)+ψ(n_y) over the window in the batch
// estimator's order, so SetWindow(w) equals KsgMi(w) bit for bit (same
// closed-interval counting, deterministic kNN tie-break and digamma sum).

#ifndef TYCOS_MI_INCREMENTAL_KSG_H_
#define TYCOS_MI_INCREMENTAL_KSG_H_

#include <cstdint>
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
  int64_t knn_recomputes = 0;      // full kNN searches: a point lost one
                                   // of its k neighbours to a removal
  int64_t knn_list_inserts = 0;    // IR hits of an added point, resolved
                                   // on the stored list in O(k)
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

  // MI of the current window: one in-order ψ sum over its marginal counts.
  double CurrentMi() const;

  const IncrementalKsgStats& stats() const { return stats_; }
  int k() const { return k_; }

  // Publishes the incremental.* stats_ fields to the obs registry as deltas
  // since the previous flush. IncrementalEvaluator calls it once per
  // evaluator stack, when a Tycos unit or a brute-force run ends — never
  // per slide, so the hot path stays atomic-free.
  void FlushObsCounters();

  // kNN extents held for the current window's slot-th point (slot 0 is the
  // window start); lets reference-model tests check the maintained state
  // point by point.
  KnnExtents PointExtents(size_t slot) const;

 private:
  int64_t WindowSizeNow() const { return end_ - start_ + 1; }
  Point2 PointAt(int64_t global_index, int64_t delay) const;

  // Slot of global X index g in the window-state buffers.
  size_t Slot(int64_t g) const { return static_cast<size_t>(g - base_); }
  // The stored neighbour list of the point in `slot`: k entries in the kNN
  // tie order, indexed by global X index.
  KnnEntry* Neighbours(size_t slot) {
    return knn_.data() + slot * static_cast<size_t>(k_);
  }

  // Adds `delta` to each marginal count of the point in `slot` whose IMR
  // strip contains q (Lemmas 5–6); returns how many strips did.
  int64_t BumpMarginals(size_t slot, const Point2& q, int64_t delta);

  // O(1) hostile-window test against the precomputed per-series tables:
  // true when w selects a constant marginal or any non-finite sample.
  bool DegenerateWindow(const Window& w) const;

  // Re-places the window-state buffers so that global X indices [lo, hi]
  // have slots, centred with equal slack on both sides, first growing them
  // to 1.25x the span plus 32 slots when they are smaller. With keep_live,
  // the current window's state moves to its new slots.
  void Place(int64_t lo, int64_t hi, bool keep_live);

  // Full recompute of all state for window w: one brute-force kNN search
  // per point (BruteKnnSelect, as RemovePoint's re-searches), O(m^2).
  void Rebuild(const Window& w);

  // Incremental edge edits (same delay as current window): add the sample
  // just outside the window, or remove the window's edge sample.
  void AddPoint(bool at_front);
  void RemovePoint(bool at_front);

  // Makes `selector`'s picks the neighbour list of the point in `slot`
  // (selector index i is global X index first + i), then derives the
  // point's extents and marginal counts from it.
  void StoreNeighbours(size_t slot, const KnnSelector& selector,
                       int64_t first);

  // Re-derives extents and marginal counts of the point in `slot` from its
  // stored neighbour list.
  void RefreshFromNeighbours(size_t slot);

  // Marginal counts for a probe via the rank indexes (self excluded).
  int64_t CountMarginalX(double x, double dx) const;
  int64_t CountMarginalY(double y, double dy) const;

  const SeriesPair& pair_;
  const int k_;
  // Lazily grown lookup table; mutable so CurrentMi() stays const.
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

  RankIndex x_index_;
  RankIndex y_index_;
  // Universe rank of every sample, precomputed once: window edits insert /
  // erase by rank (RankIndex::*AtRank), skipping the per-edit binary
  // search. rank_x_[i] ranks x[i]; rank_y_[i] ranks y[i] (callers add the
  // window delay to reach the y sample).
  std::vector<size_t> rank_x_;
  std::vector<size_t> rank_y_;

  // Window state as struct-of-arrays buffers: slot s describes global X
  // index base_ + s, so the live window is one contiguous run of slots that
  // a front insert extends without renumbering anything. The buffers are
  // sized to the window on first use — never to the series — and only
  // grow; steady-state edits allocate nothing.
  int64_t base_ = 0;
  std::vector<Point2> pts_;      // the point (x_g, y_{g+delay})
  std::vector<KnnExtents> ext_;  // its kNN extents
  std::vector<int64_t> nx_;      // marginal counts, self excluded; ψ reads
  std::vector<int64_t> ny_;      // clamp them to >= 1 (DigammaTable)
  std::vector<KnnEntry> knn_;    // k neighbour entries per slot

  IncrementalKsgStats stats_;
  // Watermark of the last FlushObsCounters(): only field deltas are
  // published, so a flush on an idle estimator is free.
  IncrementalKsgStats flushed_stats_;
};

}  // namespace tycos

#endif  // TYCOS_MI_INCREMENTAL_KSG_H_
