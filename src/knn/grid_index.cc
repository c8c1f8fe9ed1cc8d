#include "knn/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/metrics.h"

namespace tycos {

GridIndex::~GridIndex() {
  if (obs_ring_expansions_ == 0 && obs_ring_counts_[0] == 0) return;
  static obs::Counter* expansions =
      obs::GetCounter("knn.grid.ring_expansions");
  static obs::Histogram* rings = obs::GetHistogram(
      "knn.grid.rings_per_query", {0, 1, 2, 3, 4, 5, 6, 7, 8});
  expansions->Add(obs_ring_expansions_);
  for (size_t r = 0; r < kObsRingBuckets; ++r) {
    if (obs_ring_counts_[r] > 0) {
      rings->ObserveCount(static_cast<double>(r), obs_ring_counts_[r]);
    }
  }
}

GridIndex::GridIndex(std::vector<Point2> points) : points_(std::move(points)) {
  if (points_.empty()) {
    cells_.resize(1);
    return;
  }
  double min_x = points_[0].x, max_x = min_x;
  double min_y = points_[0].y, max_y = min_y;
  for (size_t i = 1; i < points_.size(); ++i) {
    min_x = std::min(min_x, points_[i].x);
    max_x = std::max(max_x, points_[i].x);
    min_y = std::min(min_y, points_[i].y);
    max_y = std::max(max_y, points_[i].y);
  }
  min_x_ = min_x;
  min_y_ = min_y;

  // Square cells sized for ~4 points per cell over the larger extent.
  const double span = std::max(max_x - min_x, max_y - min_y);
  const int64_t target_cells = std::max<int64_t>(
      1, static_cast<int64_t>(
             std::ceil(std::sqrt(static_cast<double>(points_.size()) / 4.0))));
  cell_size_ = span > 0.0 ? span / static_cast<double>(target_cells) : 1.0;
  cells_x_ = std::max<int64_t>(
      1, static_cast<int64_t>((max_x - min_x) / cell_size_) + 1);
  cells_y_ = std::max<int64_t>(
      1, static_cast<int64_t>((max_y - min_y) / cell_size_) + 1);
  cells_.resize(static_cast<size_t>(cells_x_ * cells_y_));
  for (size_t i = 0; i < points_.size(); ++i) {
    const int64_t cx = CellX(points_[i].x);
    const int64_t cy = CellY(points_[i].y);
    cells_[static_cast<size_t>(cy * cells_x_ + cx)].push_back(
        static_cast<int32_t>(i));
  }
}

int64_t GridIndex::CellX(double x) const {
  const int64_t c = static_cast<int64_t>((x - min_x_) / cell_size_);
  return std::clamp<int64_t>(c, 0, cells_x_ - 1);
}

int64_t GridIndex::CellY(double y) const {
  const int64_t c = static_cast<int64_t>((y - min_y_) / cell_size_);
  return std::clamp<int64_t>(c, 0, cells_y_ - 1);
}

const std::vector<int32_t>& GridIndex::Cell(int64_t cx, int64_t cy) const {
  return cells_[static_cast<size_t>(cy * cells_x_ + cx)];
}

KnnExtents GridIndex::QueryExtents(size_t query, int k) const {
  TYCOS_CHECK_GE(k, 1);
  TYCOS_CHECK_LT(query, points_.size());
  TYCOS_CHECK_GE(points_.size(), static_cast<size_t>(k) + 1);
  const Point2& probe = points_[query];
  KnnSelector selector(k);

  // The ring walk stays scalar on purpose: cells hold ~4 points, and a
  // batched gather pass over the ring's candidate list measured SLOWER
  // than this direct walk — gather latency plus the collect/copy overhead
  // dominates tiny candidate lists. See DESIGN.md "SIMD kernels" for the
  // measurement.
  auto push = [&](int32_t idx) {
    if (static_cast<size_t>(idx) == query) return;
    selector.Offer(ChebyshevDistance(points_[static_cast<size_t>(idx)], probe),
                   static_cast<size_t>(idx));
  };

  const int64_t pcx = CellX(probe.x);
  const int64_t pcy = CellY(probe.y);
  const int64_t max_ring = std::max(cells_x_, cells_y_);
  int64_t rings_scanned = 0;
  for (int64_t ring = 0; ring <= max_ring; ++ring) {
    // All cells whose Chebyshev cell-distance from the probe's cell is
    // exactly `ring`; every point in farther rings is at L∞ distance
    // > (ring - 1) * cell_size_ from anywhere in the probe's cell, but we
    // can bound tighter against the probe itself below.
    if (selector.full()) {
      // Points in this ring are at least (ring - 1) * cell_size_ away from
      // the probe (the probe sits somewhere inside its own cell).
      const double ring_lower =
          static_cast<double>(ring - 1) * cell_size_;
      if (ring_lower > selector.worst()) break;
    }
    ++rings_scanned;
    const int64_t x_lo = pcx - ring, x_hi = pcx + ring;
    const int64_t y_lo = pcy - ring, y_hi = pcy + ring;
    for (int64_t cy = std::max<int64_t>(y_lo, 0);
         cy <= std::min(y_hi, cells_y_ - 1); ++cy) {
      const bool y_edge = (cy == y_lo || cy == y_hi);
      for (int64_t cx = std::max<int64_t>(x_lo, 0);
           cx <= std::min(x_hi, cells_x_ - 1); ++cx) {
        if (!y_edge && cx != x_lo && cx != x_hi) continue;  // interior
        for (int32_t idx : Cell(cx, cy)) push(idx);
      }
    }
  }
  TYCOS_CHECK_EQ(selector.size(), static_cast<size_t>(k));
  // Expansions = rings beyond the probe's own cell. Plain-int tallies here
  // (flushed by the destructor) keep the query loop registry-free.
  const int64_t ring_expansions = rings_scanned > 0 ? rings_scanned - 1 : 0;
  obs_ring_expansions_ += ring_expansions;
  ++obs_ring_counts_[std::min<size_t>(static_cast<size_t>(ring_expansions),
                                      kObsRingBuckets - 1)];
  return selector.Extents(points_, probe);
}

}  // namespace tycos
