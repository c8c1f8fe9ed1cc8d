#include "knn/kd_tree.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"

namespace tycos {

KdTree::KdTree(std::vector<Point2> points) : points_(std::move(points)) {
  if (points_.empty()) return;
  std::vector<int32_t> ids(points_.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int32_t>(i);
  nodes_.reserve(points_.size());
  root_ = Build(ids, 0, ids.size(), 0);
}

int32_t KdTree::Build(std::vector<int32_t>& ids, size_t lo, size_t hi,
                      int depth) {
  if (lo >= hi) return -1;
  const uint8_t axis = static_cast<uint8_t>(depth & 1);
  const size_t mid = (lo + hi) / 2;
  std::nth_element(
      ids.begin() + lo, ids.begin() + mid, ids.begin() + hi,
      [&](int32_t a, int32_t b) {
        const double va = axis ? points_[a].y : points_[a].x;
        const double vb = axis ? points_[b].y : points_[b].x;
        if (va != vb) return va < vb;
        return a < b;  // deterministic layout for duplicate coordinates
      });
  Node node;
  node.point = ids[mid];
  node.axis = axis;
  const int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(node);
  const int32_t left = Build(ids, lo, mid, depth + 1);
  const int32_t right = Build(ids, mid + 1, hi, depth + 1);
  nodes_[id].left = left;
  nodes_[id].right = right;
  return id;
}

void KdTree::Select(const Point2& probe, size_t exclude,
                    KnnSelector* selector) const {
  // Iterative depth-first traversal with pruning on the splitting plane.
  // The node stack is thread_local scratch, so a query allocates nothing.
  thread_local std::vector<int32_t> stack;
  stack.clear();
  stack.push_back(root_);
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    if (id < 0) continue;
    const Node& node = nodes_[static_cast<size_t>(id)];
    const Point2& p = points_[static_cast<size_t>(node.point)];
    if (static_cast<size_t>(node.point) != exclude) {
      selector->Offer(ChebyshevDistance(p, probe),
                      static_cast<size_t>(node.point));
    }
    const double diff =
        node.axis ? (probe.y - p.y) : (probe.x - p.x);
    const int32_t near = diff < 0 ? node.left : node.right;
    const int32_t far = diff < 0 ? node.right : node.left;
    // The far subtree can only contain closer points when the plane distance
    // beats the current kth distance (L∞: plane distance lower-bounds it).
    if (far >= 0 &&
        (!selector->full() || std::fabs(diff) <= selector->worst())) {
      stack.push_back(far);
    }
    if (near >= 0) stack.push_back(near);
  }
}

KnnExtents KdTree::QueryExtents(size_t query, int k) const {
  TYCOS_CHECK_GE(k, 1);
  TYCOS_CHECK_LT(query, points_.size());
  TYCOS_CHECK_GE(points_.size(), static_cast<size_t>(k) + 1);
  KnnSelector selector(k);
  Select(points_[query], query, &selector);
  TYCOS_CHECK_EQ(selector.size(), static_cast<size_t>(k));
  return selector.Extents(points_, points_[query]);
}

}  // namespace tycos
