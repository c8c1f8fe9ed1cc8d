#include "mi/incremental_ksg.h"

#include <algorithm>
#include <cmath>

#include "audit/audit.h"
#include "knn/brute_knn.h"
#include "knn/kd_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#if TYCOS_AUDIT_ENABLED
#include "mi/ksg.h"
#endif

namespace tycos {

namespace {

// ψ(max(n, 1)): the same clamp the batch estimator applies before the
// digamma so degenerate floating-point counts cannot reach ψ(0).
double PsiClamped(DigammaTable& psi, int64_t n) {
  return psi(static_cast<size_t>(n < 1 ? 1 : n));
}

}  // namespace

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

KnnExtents IncrementalKsg::ScanKnn(const Point2& probe,
                                   size_t exclude_slot) const {
  // Slots are scanned in order, so the selector's one-compare path keeps
  // the (distance, slot) tie-break of the batch backends.
  KnnSelector selector(k_);
  size_t j = 0;
  for (const PointState& st : points_) {
    if (j != exclude_slot) {
      selector.OfferAscending(ChebyshevDistance(st.p, probe), j);
    }
    ++j;
  }
  TYCOS_CHECK_EQ(selector.size(), static_cast<size_t>(k_));
  return selector.Extents(points_, probe, &PointState::p);
}

void IncrementalKsg::RecomputePoint(size_t slot) {
  PointState& st = points_[slot];
  sum_psi_ -= PsiClamped(psi_, st.nx) + PsiClamped(psi_, st.ny);
  const KnnExtents e = ScanKnn(st.p, slot);
  st.dx = e.dx;
  st.dy = e.dy;
  st.nx = CountMarginalX(st.p.x, st.dx);
  st.ny = CountMarginalY(st.p.y, st.dy);
  sum_psi_ += PsiClamped(psi_, st.nx) + PsiClamped(psi_, st.ny);
  ++stats_.knn_recomputes;
}

void IncrementalKsg::Rebuild(const Window& w) {
  TYCOS_SPAN("ksg_rebuild");
  // Erase by precomputed rank: slot j holds global X index start_ + j (the
  // OLD start_/delay_, still current at this point).
  for (size_t j = 0; j < points_.size(); ++j) {
    const int64_t gx = start_ + static_cast<int64_t>(j);
    x_index_.EraseAtRank(rank_x_[static_cast<size_t>(gx)]);
    y_index_.EraseAtRank(rank_y_[static_cast<size_t>(gx + delay_)]);
  }
  points_.clear();
  sum_psi_ = 0.0;

  start_ = w.start;
  end_ = w.end;
  delay_ = w.delay;
  const int64_t m = w.size();
  if (m < k_ + 2) {
    has_window_ = false;  // too small to estimate; force rebuild next time
    return;
  }
  has_window_ = true;

  std::vector<Point2>& pts = rebuild_scratch_;
  pts.clear();
  pts.resize(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    pts[static_cast<size_t>(i)] = PointAt(start_ + i, delay_);
    x_index_.InsertAtRank(rank_x_[static_cast<size_t>(start_ + i)]);
    y_index_.InsertAtRank(rank_y_[static_cast<size_t>(start_ + i + delay_)]);
  }

  const bool use_tree = m > 256;
  KdTree tree(use_tree ? pts : std::vector<Point2>{});
#if TYCOS_AUDIT_ENABLED
  // Backend-agreement audit: the k-d tree fast path must return extents
  // bit-identical to the brute reference (same deterministic tie-break).
  // Sampled per rebuild, strided within it, to bound the O(m) brute scans.
  static audit::Auditor* knn_audit = audit::Get("knn_backend_agreement");
  const bool audit_rebuild = use_tree && knn_audit->ShouldSample(16);
  const int64_t audit_stride = std::max<int64_t>(1, m / 8);
#endif
  for (int64_t i = 0; i < m; ++i) {
    PointState st;
    st.p = pts[static_cast<size_t>(i)];
    const KnnExtents e =
        use_tree ? tree.QueryExtents(static_cast<size_t>(i), k_)
                 : BruteKnnExtents(pts, static_cast<size_t>(i), k_);
#if TYCOS_AUDIT_ENABLED
    if (audit_rebuild && i % audit_stride == 0) {
      const KnnExtents b = BruteKnnExtents(pts, static_cast<size_t>(i), k_);
      TYCOS_AUDIT_CHECK(knn_audit, e.dx == b.dx && e.dy == b.dy,
                        "kd-tree extents diverge from brute at point " +
                            std::to_string(i) + " of m=" + std::to_string(m) +
                            ": kd=(" + std::to_string(e.dx) + "," +
                            std::to_string(e.dy) + ") brute=(" +
                            std::to_string(b.dx) + "," + std::to_string(b.dy) +
                            ")");
    }
#endif
    st.dx = e.dx;
    st.dy = e.dy;
    st.nx = CountMarginalX(st.p.x, st.dx);
    st.ny = CountMarginalY(st.p.y, st.dy);
    sum_psi_ += PsiClamped(psi_, st.nx) + PsiClamped(psi_, st.ny);
    points_.push_back(st);
  }
  ++stats_.full_rebuilds;
  // One registry write per rebuild (not per query): the backend answered m
  // kNN queries while rebuilding the window state.
  static obs::Counter* kd_queries = obs::GetCounter("knn.kd_tree.queries");
  static obs::Counter* brute_queries = obs::GetCounter("knn.brute.queries");
  (use_tree ? kd_queries : brute_queries)->Add(m);
}

void IncrementalKsg::AddPoint(int64_t global_index) {
  TYCOS_CHECK(global_index == start_ - 1 || global_index == end_ + 1);
  const bool at_front = global_index == start_ - 1;
  const Point2 o = PointAt(global_index, delay_);

  // Classify existing points: IR hit -> kNN recompute; IMR hit -> count bump
  // (Lemmas 3 and 5).
  std::vector<size_t>& to_recompute = recompute_scratch_;
  to_recompute.clear();
  for (size_t j = 0; j < points_.size(); ++j) {
    PointState& p = points_[j];
    // IR membership is tested with the same ChebyshevDistance computation
    // the kNN search uses, so a point exactly at the k-th distance (e.g. the
    // defining neighbour) is classified identically — reconstructing box
    // bounds as p.x ± d would round differently and miss it.
    const double d = std::max(p.dx, p.dy);
    const bool in_ir = ChebyshevDistance(o, p.p) <= d;
    if (in_ir) {
      to_recompute.push_back(j);
      continue;
    }
    if (o.x >= p.p.x - p.dx && o.x <= p.p.x + p.dx) {
      sum_psi_ -= PsiClamped(psi_, p.nx);
      ++p.nx;
      sum_psi_ += PsiClamped(psi_, p.nx);
      ++stats_.marginal_updates;
    }
    if (o.y >= p.p.y - p.dy && o.y <= p.p.y + p.dy) {
      sum_psi_ -= PsiClamped(psi_, p.ny);
      ++p.ny;
      sum_psi_ += PsiClamped(psi_, p.ny);
      ++stats_.marginal_updates;
    }
  }

  // Insert the new point (by precomputed rank).
  x_index_.InsertAtRank(rank_x_[static_cast<size_t>(global_index)]);
  y_index_.InsertAtRank(rank_y_[static_cast<size_t>(global_index + delay_)]);
  PointState st;
  st.p = o;
  if (at_front) {
    points_.push_front(st);
    --start_;
    // Slots shifted by one.
    for (size_t& j : to_recompute) ++j;
  } else {
    points_.push_back(st);
    ++end_;
  }
  const size_t own_slot = at_front ? 0 : points_.size() - 1;

  // The new point's own state.
  {
    PointState& self = points_[own_slot];
    const KnnExtents e = ScanKnn(self.p, own_slot);
    self.dx = e.dx;
    self.dy = e.dy;
    self.nx = CountMarginalX(self.p.x, self.dx);
    self.ny = CountMarginalY(self.p.y, self.dy);
    sum_psi_ += PsiClamped(psi_, self.nx) + PsiClamped(psi_, self.ny);
  }

  // Re-derive state for IR-hit points now that o is in the window.
  for (size_t j : to_recompute) RecomputePoint(j);
  ++stats_.points_added;
}

void IncrementalKsg::RemovePoint(int64_t global_index) {
  TYCOS_CHECK(global_index == start_ || global_index == end_);
  const bool at_front = global_index == start_;
  const size_t slot = at_front ? 0 : points_.size() - 1;
  const PointState removed = points_[slot];

  sum_psi_ -= PsiClamped(psi_, removed.nx) + PsiClamped(psi_, removed.ny);
  x_index_.EraseAtRank(rank_x_[static_cast<size_t>(global_index)]);
  y_index_.EraseAtRank(rank_y_[static_cast<size_t>(global_index + delay_)]);
  if (at_front) {
    points_.pop_front();
    ++start_;
  } else {
    points_.pop_back();
    --end_;
  }

  // Classify survivors against the removed point (Lemmas 4 and 6).
  std::vector<size_t>& to_recompute = recompute_scratch_;
  to_recompute.clear();
  for (size_t j = 0; j < points_.size(); ++j) {
    PointState& p = points_[j];
    // Same exact-distance IR test as in AddPoint (see comment there).
    const double d = std::max(p.dx, p.dy);
    const bool in_ir = ChebyshevDistance(removed.p, p.p) <= d;
    if (in_ir) {
      to_recompute.push_back(j);
      continue;
    }
    if (removed.p.x >= p.p.x - p.dx && removed.p.x <= p.p.x + p.dx) {
      sum_psi_ -= PsiClamped(psi_, p.nx);
      --p.nx;
      sum_psi_ += PsiClamped(psi_, p.nx);
      ++stats_.marginal_updates;
    }
    if (removed.p.y >= p.p.y - p.dy && removed.p.y <= p.p.y + p.dy) {
      sum_psi_ -= PsiClamped(psi_, p.ny);
      --p.ny;
      sum_psi_ += PsiClamped(psi_, p.ny);
      ++stats_.marginal_updates;
    }
  }
  for (size_t j : to_recompute) RecomputePoint(j);
  ++stats_.points_removed;
}

double IncrementalKsg::SetWindow(const Window& w) {
  TYCOS_SPAN("ksg_set_window");
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
  while (start_ < w.start) RemovePoint(start_);
  while (end_ > w.end) RemovePoint(end_);
  while (start_ > w.start) AddPoint(start_ - 1);
  while (end_ < w.end) AddPoint(end_ + 1);
  ++stats_.incremental_moves;

#if TYCOS_AUDIT_ENABLED
  {
    // Differential audit (the paper's core equivalence, Eq. 2 / Sec. 7):
    // after an incremental move, the maintained state must reproduce the
    // batch estimator's MI for the same window. Sampled because the batch
    // recompute is O(m log m) — exactly the cost the incremental path
    // exists to avoid.
    static audit::Auditor* diff_audit = audit::Get("incremental_vs_batch");
    if (diff_audit->ShouldSample(32)) {
      std::vector<double> xs, ys;
      ExtractSamples(pair_, w, &xs, &ys);
      KsgOptions opts;
      opts.k = k_;
      opts.backend = KnnBackend::kBrute;
      // Sampled through a shared counter, so this recompute must not
      // leak into the obs registry (thread-count determinism).
      opts.publish_obs = false;
      const double batch = KsgMi(xs, ys, opts);
      const double inc = CurrentMi();
      TYCOS_AUDIT_CHECK(
          diff_audit, std::fabs(inc - batch) <= 1e-7,
          "incremental MI diverged from batch on " + w.ToString() +
              ": incremental=" + std::to_string(inc) +
              " batch=" + std::to_string(batch) +
              " diff=" + std::to_string(inc - batch));
    }
  }
#endif
  return CurrentMi();
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
  flush(marginals, stats_.marginal_updates, &flushed_stats_.marginal_updates);
  // stats_.degenerate_windows is deliberately absent: IncrementalEvaluator
  // folds it into mi.degenerate_windows alongside its stateless path.
}

double IncrementalKsg::CurrentMi() const {
  if (!has_window_) return 0.0;
  const int64_t m = WindowSizeNow();
  if (m < k_ + 2) return 0.0;
  return psi_(static_cast<size_t>(k_)) - 1.0 / k_ -
         sum_psi_ / static_cast<double>(m) + psi_(static_cast<size_t>(m));
}

}  // namespace tycos
