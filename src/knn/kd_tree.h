// 2-D k-d tree with L∞ k-nearest-neighbour queries. Expected O(log m) per
// query (paper Section 5.1 cites [5, 12] for the O(m log m) all-points
// bound). Results match the brute-force backend exactly, including the
// deterministic (distance, index) tie-break. No search builds a tree: only
// an explicit KnnBackend::kKdTree reaches it (the benchmark replay, the
// micro benches and the agreement tests), because brute force is as fast
// up to about 1,000 samples (DESIGN.md, substitution 5).

#ifndef TYCOS_KNN_KD_TREE_H_
#define TYCOS_KNN_KD_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "knn/point.h"

namespace tycos {

class KdTree {
 public:
  // Builds a balanced tree over `points` in O(m log m). The point vector is
  // copied; indices reported by queries refer to positions in `points`.
  explicit KdTree(std::vector<Point2> points);

  size_t size() const { return points_.size(); }

  // Extents of the k nearest neighbours of points[query] (self excluded).
  // Requires size() >= k + 1.
  KnnExtents QueryExtents(size_t query, int k) const;

 private:
  struct Node {
    int32_t point = -1;    // index into points_
    int32_t left = -1;     // child node ids, -1 when absent
    int32_t right = -1;
    uint8_t axis = 0;      // 0 = x, 1 = y
  };

  int32_t Build(std::vector<int32_t>& ids, size_t lo, size_t hi, int depth);

  std::vector<Point2> points_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
};

}  // namespace tycos

#endif  // TYCOS_KNN_KD_TREE_H_
