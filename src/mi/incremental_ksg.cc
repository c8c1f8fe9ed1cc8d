#include "mi/incremental_ksg.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "common/simd.h"
#include "knn/brute_knn.h"
#include "obs/metrics.h"

namespace tycos {

namespace {

// Universe values for the rank indexes. Non-finite samples are mapped to 0
// so the sorted universe keeps a strict weak order; they can never be
// *inserted* (windows touching them are rejected as degenerate), so the
// substitution only affects construction.
std::vector<double> FiniteUniverse(const std::vector<double>& values) {
  std::vector<double> out = values;
  for (double& v : out) {
    if (!std::isfinite(v)) v = 0.0;
  }
  return out;
}

void BuildHostileTables(const std::vector<double>& values,
                        std::vector<int64_t>* run_start,
                        std::vector<int64_t>* nonfinite_prefix) {
  const int64_t n = static_cast<int64_t>(values.size());
  run_start->resize(static_cast<size_t>(n));
  nonfinite_prefix->assign(static_cast<size_t>(n) + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    (*run_start)[static_cast<size_t>(i)] =
        (i > 0 && values[static_cast<size_t>(i)] ==
                      values[static_cast<size_t>(i - 1)])
            ? (*run_start)[static_cast<size_t>(i - 1)]
            : i;
    (*nonfinite_prefix)[static_cast<size_t>(i) + 1] =
        (*nonfinite_prefix)[static_cast<size_t>(i)] +
        (std::isfinite(values[static_cast<size_t>(i)]) ? 0 : 1);
  }
}

// Moves `count` slots of `stride` elements from slot `from` to slot `to`
// (the ranges may overlap), first growing the buffer to exactly `cap`
// slots.
template <typename T>
void MoveSlots(std::vector<T>* v, size_t stride, size_t cap, size_t from,
               size_t to, size_t count) {
  if (v->size() < cap * stride) {
    v->reserve(cap * stride);
    v->resize(cap * stride);
  }
  if (count > 0 && from != to) {
    std::memmove(v->data() + to * stride, v->data() + from * stride,
                 count * stride * sizeof(T));
  }
}

// The L∞ distances from `probe` to the m points at `window`, in
// thread_local scratch shared by every estimator on the thread (bounded by
// the largest window the thread has edited).
const double* DistanceRow(const Point2* window, size_t m,
                          const Point2& probe) {
  thread_local std::vector<double> row;
  if (row.size() < m) row.resize(m);
  simd::ChebyshevToProbe(reinterpret_cast<const double*>(window), m, probe.x,
                         probe.y, row.data());
  return row.data();
}

}  // namespace

IncrementalKsg::IncrementalKsg(const SeriesPair& pair, int k)
    : pair_(pair),
      k_(k),
      x_index_(FiniteUniverse(pair.x().values())),
      y_index_(FiniteUniverse(pair.y().values())) {
  TYCOS_CHECK_GE(k_, 1);
  BuildHostileTables(pair.x().values(), &run_start_x_, &nonfinite_prefix_x_);
  BuildHostileTables(pair.y().values(), &run_start_y_, &nonfinite_prefix_y_);
  // Precompute every sample's universe rank once, so the per-edit hot path
  // below inserts/erases by rank with no binary search. Non-finite samples
  // rank their 0.0 substitute; they can never be inserted (degenerate
  // windows are rejected), so the entry is just never read.
  const std::vector<double> fx = FiniteUniverse(pair.x().values());
  const std::vector<double> fy = FiniteUniverse(pair.y().values());
  rank_x_.resize(fx.size());
  rank_y_.resize(fy.size());
  for (size_t i = 0; i < fx.size(); ++i) rank_x_[i] = x_index_.Rank(fx[i]);
  for (size_t i = 0; i < fy.size(); ++i) rank_y_[i] = y_index_.Rank(fy[i]);
}

bool IncrementalKsg::DegenerateWindow(const Window& w) const {
  const size_t xe = static_cast<size_t>(w.end);
  const size_t ye = static_cast<size_t>(w.y_end());
  if (run_start_x_[xe] <= w.start) return true;            // constant X
  if (run_start_y_[ye] <= w.y_start()) return true;        // constant Y
  if (nonfinite_prefix_x_[xe + 1] -
          nonfinite_prefix_x_[static_cast<size_t>(w.start)] > 0) {
    return true;
  }
  if (nonfinite_prefix_y_[ye + 1] -
          nonfinite_prefix_y_[static_cast<size_t>(w.y_start())] > 0) {
    return true;
  }
  return false;
}

Point2 IncrementalKsg::PointAt(int64_t global_index, int64_t delay) const {
  return {pair_.x()[global_index], pair_.y()[global_index + delay]};
}

int64_t IncrementalKsg::CountMarginalX(double x, double dx) const {
  return x_index_.CountInRange(x - dx, x + dx) - 1;  // minus self
}

int64_t IncrementalKsg::CountMarginalY(double y, double dy) const {
  return y_index_.CountInRange(y - dy, y + dy) - 1;
}

int64_t IncrementalKsg::BumpMarginals(size_t slot, const Point2& q,
                                      int64_t delta) {
  // Branch-free: whether q falls in a strip is data-dependent and
  // unpredictable. The bounds are the ones CountMarginalX/Y count with.
  const Point2& p = pts_[slot];
  const KnnExtents& e = ext_[slot];
  const int64_t in_x = int64_t{q.x >= p.x - e.dx} & int64_t{q.x <= p.x + e.dx};
  const int64_t in_y = int64_t{q.y >= p.y - e.dy} & int64_t{q.y <= p.y + e.dy};
  nx_[slot] += in_x * delta;
  ny_[slot] += in_y * delta;
  return in_x + in_y;
}

void IncrementalKsg::StoreNeighbours(size_t slot, const KnnSelector& selector,
                                     int64_t first) {
  TYCOS_CHECK_EQ(selector.size(), static_cast<size_t>(k_));
  KnnEntry* list = Neighbours(slot);
  for (const KnnEntry& n : selector.selected()) {
    *list++ = {n.d, n.index + static_cast<size_t>(first)};
  }
  RefreshFromNeighbours(slot);
}

void IncrementalKsg::RefreshFromNeighbours(size_t slot) {
  const Point2& p = pts_[slot];
  const KnnExtents e = ExtentsOf(
      {Neighbours(slot), static_cast<size_t>(k_)}, p,
      [this](size_t g) -> const Point2& {
        return pts_[Slot(static_cast<int64_t>(g))];
      });
  ext_[slot] = e;
  nx_[slot] = CountMarginalX(p.x, e.dx);
  ny_[slot] = CountMarginalY(p.y, e.dy);
}

void IncrementalKsg::Place(int64_t lo, int64_t hi, bool keep_live) {
  const int64_t span = hi - lo + 1;
  const int64_t want = std::min<int64_t>(span + span / 4 + 32, pair_.size());
  const int64_t cap = std::max(static_cast<int64_t>(pts_.size()), want);
  const int64_t base =
      std::clamp<int64_t>(lo - (cap - span) / 2, 0, pair_.size() - cap);
  const size_t ucap = static_cast<size_t>(cap);
  const size_t from = keep_live ? Slot(start_) : 0;
  const size_t to = static_cast<size_t>(start_ - base);
  const size_t count = keep_live ? static_cast<size_t>(WindowSizeNow()) : 0;
  MoveSlots(&pts_, 1, ucap, from, to, count);
  MoveSlots(&ext_, 1, ucap, from, to, count);
  MoveSlots(&nx_, 1, ucap, from, to, count);
  MoveSlots(&ny_, 1, ucap, from, to, count);
  MoveSlots(&knn_, static_cast<size_t>(k_), ucap, from, to, count);
  base_ = base;
}

void IncrementalKsg::Rebuild(const Window& w) {
  if (has_window_) {
    for (int64_t g = start_; g <= end_; ++g) {
      x_index_.EraseAtRank(rank_x_[static_cast<size_t>(g)]);
      y_index_.EraseAtRank(rank_y_[static_cast<size_t>(g + delay_)]);
    }
  }
  start_ = w.start;
  end_ = w.end;
  delay_ = w.delay;
  const int64_t m = w.size();
  // Too small to estimate: no state, so the next window rebuilds.
  has_window_ = m >= k_ + 2;
  if (!has_window_) return;

  Place(start_, end_, /*keep_live=*/false);
  const size_t first = Slot(start_);
  for (int64_t i = 0; i < m; ++i) {
    pts_[first + static_cast<size_t>(i)] = PointAt(start_ + i, delay_);
    x_index_.InsertAtRank(rank_x_[static_cast<size_t>(start_ + i)]);
    y_index_.InsertAtRank(rank_y_[static_cast<size_t>(start_ + i + delay_)]);
  }
  const std::span<const Point2> window(pts_.data() + first,
                                       static_cast<size_t>(m));
  for (size_t i = 0; i < window.size(); ++i) {
    KnnSelector selector(k_);
    BruteKnnSelect(window, window[i], i, &selector);
    StoreNeighbours(first + i, selector, start_);
  }
  ++stats_.full_rebuilds;
  // One registry write per rebuild (not per query): m brute-force kNN
  // queries rebuilt the window state.
  static obs::Counter* queries = obs::GetCounter("knn.brute.queries");
  queries->Add(m);
}

void IncrementalKsg::AddPoint(bool at_front) {
  const int64_t global_index = at_front ? start_ - 1 : end_ + 1;
  if (global_index < base_ ||
      global_index >= base_ + static_cast<int64_t>(pts_.size())) {
    Place(std::min(global_index, start_), std::max(global_index, end_),
          /*keep_live=*/true);
  }
  const Point2 o = PointAt(global_index, delay_);
  const size_t own_slot = Slot(global_index);
  pts_[own_slot] = o;
  x_index_.InsertAtRank(rank_x_[static_cast<size_t>(global_index)]);
  y_index_.InsertAtRank(rank_y_[static_cast<size_t>(global_index + delay_)]);

  // One distance row from o to the window feeds the IR/IMR pass and o's own
  // kNN selection.
  const size_t first = Slot(start_);
  const size_t m = static_cast<size_t>(WindowSizeNow());
  const double* row = DistanceRow(&pts_[first], m, o);
  const size_t k = static_cast<size_t>(k_);
  for (size_t j = 0; j < m; ++j) {
    const size_t slot = first + j;
    // IR test (Lemma 3) against max(dx, dy), which is exactly the k-th
    // neighbour's distance: a point at the k-th distance counts as hit.
    const bool in_ir = row[j] <= ext_[slot].radius();
    // Every point whose marginal strips contain o gains it (Lemma 5). For
    // an IR hit that changes the neighbour list the counts are re-derived
    // below; otherwise the list and so the extents stand.
    const int64_t hits = BumpMarginals(slot, o, +1);
    stats_.marginal_updates += in_ir ? 0 : hits;
    if (!in_ir) continue;
    ++stats_.knn_list_inserts;
    KnnEntry* list = Neighbours(slot);
    const KnnEntry cand{row[j], static_cast<size_t>(global_index)};
    // A tie at the k-th distance that loses on index leaves the list as is.
    if (KnnBefore(cand, list[k - 1])) {
      InsertSorted(list, k - 1, cand);
      RefreshFromNeighbours(slot);
    }
  }

  KnnSelector selector(k_);
  for (size_t j = 0; j < m; ++j) selector.OfferAscending(row[j], j);
  StoreNeighbours(own_slot, selector, start_);
  if (at_front) {
    start_ = global_index;
  } else {
    end_ = global_index;
  }
  ++stats_.points_added;
}

void IncrementalKsg::RemovePoint(bool at_front) {
  const int64_t global_index = at_front ? start_ : end_;
  const Point2 r = pts_[Slot(global_index)];
  x_index_.EraseAtRank(rank_x_[static_cast<size_t>(global_index)]);
  y_index_.EraseAtRank(rank_y_[static_cast<size_t>(global_index + delay_)]);
  if (at_front) {
    ++start_;
  } else {
    --end_;
  }

  const size_t first = Slot(start_);
  const size_t m = static_cast<size_t>(WindowSizeNow());
  const std::span<const Point2> window(pts_.data() + first, m);
  const double* row = DistanceRow(window.data(), m, r);
  const size_t k = static_cast<size_t>(k_);
  for (size_t j = 0; j < m; ++j) {
    const size_t slot = first + j;
    const bool in_ir = row[j] <= ext_[slot].radius();  // Lemma 4
    const int64_t hits = BumpMarginals(slot, r, -1);    // Lemma 6
    stats_.marginal_updates += in_ir ? 0 : hits;
    if (!in_ir) continue;
    // An IR hit held r among its k neighbours unless r ties the k-th
    // distance and loses on index. A point that held r searches again.
    const KnnEntry cand{row[j], static_cast<size_t>(global_index)};
    if (KnnBefore(Neighbours(slot)[k - 1], cand)) continue;
    KnnSelector selector(k_);
    BruteKnnSelect(window, window[j], j, &selector);
    StoreNeighbours(slot, selector, start_);
    ++stats_.knn_recomputes;
  }
  ++stats_.points_removed;
}

double IncrementalKsg::SetWindow(const Window& w) {
  TYCOS_CHECK_GE(w.start, 0);
  TYCOS_CHECK_LT(w.end, pair_.size());
  TYCOS_CHECK_GE(w.y_start(), 0);
  TYCOS_CHECK_LT(w.y_end(), pair_.size());

  if (w.size() < k_ + 2) {
    Rebuild(w);  // clears state; CurrentMi() is 0
    return 0.0;
  }

  // Hostile-window guard: constant marginals and non-finite samples score a
  // defined 0 and never reach a kNN query. State is left on the previous
  // (healthy) window so an interleaved degenerate probe does not destroy
  // incremental locality.
  if (DegenerateWindow(w)) {
    ++stats_.degenerate_windows;
    return 0.0;
  }

  bool incremental = has_window_ && w.delay == delay_;
  if (incremental) {
    const int64_t overlap =
        std::min(end_, w.end) - std::max(start_, w.start) + 1;
    const int64_t changes =
        (w.size() - std::max<int64_t>(overlap, 0)) +
        (WindowSizeNow() - std::max<int64_t>(overlap, 0));
    // Fall back to a rebuild when too little is shared (the intermediate
    // window must also stay large enough for kNN queries).
    if (overlap < k_ + 2 || changes >= w.size()) incremental = false;
  }

  if (!incremental) {
    Rebuild(w);
    return CurrentMi();
  }

  // Shrink first (front then back), then grow, so the active set is always
  // a valid window between edits.
  while (start_ < w.start) RemovePoint(/*at_front=*/true);
  while (end_ > w.end) RemovePoint(/*at_front=*/false);
  while (start_ > w.start) AddPoint(/*at_front=*/true);
  while (end_ < w.end) AddPoint(/*at_front=*/false);
  ++stats_.incremental_moves;
  return CurrentMi();
}

KnnExtents IncrementalKsg::PointExtents(size_t slot) const {
  TYCOS_CHECK(has_window_ && static_cast<int64_t>(slot) < WindowSizeNow());
  return ext_[Slot(start_) + slot];
}

void IncrementalKsg::FlushObsCounters() {
  static obs::Counter* rebuilds =
      obs::GetCounter("incremental.full_rebuilds");
  static obs::Counter* moves =
      obs::GetCounter("incremental.incremental_moves");
  static obs::Counter* added = obs::GetCounter("incremental.points_added");
  static obs::Counter* removed =
      obs::GetCounter("incremental.points_removed");
  static obs::Counter* recomputes =
      obs::GetCounter("incremental.knn_recomputes");
  static obs::Counter* list_inserts =
      obs::GetCounter("incremental.knn_list_inserts");
  static obs::Counter* marginals =
      obs::GetCounter("incremental.marginal_updates");
  const auto flush = [](obs::Counter* counter, int64_t now,
                        int64_t* flushed) {
    if (now == *flushed) return;
    counter->Add(now - *flushed);
    *flushed = now;
  };
  flush(rebuilds, stats_.full_rebuilds, &flushed_stats_.full_rebuilds);
  flush(moves, stats_.incremental_moves, &flushed_stats_.incremental_moves);
  flush(added, stats_.points_added, &flushed_stats_.points_added);
  flush(removed, stats_.points_removed, &flushed_stats_.points_removed);
  flush(recomputes, stats_.knn_recomputes, &flushed_stats_.knn_recomputes);
  flush(list_inserts, stats_.knn_list_inserts,
        &flushed_stats_.knn_list_inserts);
  flush(marginals, stats_.marginal_updates, &flushed_stats_.marginal_updates);
  // stats_.degenerate_windows is deliberately absent: IncrementalEvaluator
  // folds it into mi.degenerate_windows alongside its stateless path.
}

double IncrementalKsg::CurrentMi() const {
  if (!has_window_) return 0.0;
  // The batch estimator's exact expression and summation order.
  const int64_t m = WindowSizeNow();
  const size_t first = Slot(start_);
  const double marginal_sum = psi_.SumPairs(
      nx_.data() + first, ny_.data() + first, static_cast<size_t>(m));
  return psi_(static_cast<size_t>(k_)) - 1.0 / k_ -
         marginal_sum / static_cast<double>(m) + psi_(static_cast<size_t>(m));
}

}  // namespace tycos
