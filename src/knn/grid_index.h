// Uniform-grid kNN index for 2-D points under L∞ — the "grid-based
// structure (for low dimensional data)" the paper cites for expected-case
// O(m log m) all-points kNN (Section 5.1). Cells are square, so L∞ ring
// expansion gives an exact lower bound per ring; results match the brute
// backend bit-for-bit, including the (distance, index) tie-break. No search
// builds a grid: only an explicit KnnBackend::kGrid reaches it (the
// benchmark replay, the micro benches and the agreement tests).

#ifndef TYCOS_KNN_GRID_INDEX_H_
#define TYCOS_KNN_GRID_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "knn/point.h"

namespace tycos {

class GridIndex {
 public:
  // Builds the grid over `points` with ~4 points per cell on average. Points
  // whose span overflows a double (coordinates near ±DBL_MAX) share one
  // cell, so each query scans them all.
  explicit GridIndex(std::vector<Point2> points);

  size_t size() const { return points_.size(); }

  // Extents of the k nearest neighbours of points[query] (self excluded).
  // Requires size() >= k + 1.
  KnnExtents QueryExtents(size_t query, int k) const;

 private:
  int64_t CellX(double x) const;
  int64_t CellY(double y) const;
  const std::vector<int32_t>& Cell(int64_t cx, int64_t cy) const;

  std::vector<Point2> points_;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  double cell_size_ = 1.0;
  int64_t cells_x_ = 1;
  int64_t cells_y_ = 1;
  std::vector<std::vector<int32_t>> cells_;  // row-major [cy * cells_x_ + cx]
};

}  // namespace tycos

#endif  // TYCOS_KNN_GRID_INDEX_H_
