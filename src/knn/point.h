// 2-D point and k-NN query result types shared by the kNN backends, and the
// k-nearest selector every backend (and the incremental estimator) uses.

#ifndef TYCOS_KNN_POINT_H_
#define TYCOS_KNN_POINT_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/simd.h"  // KnnEntry

namespace tycos {

struct Point2 {
  double x = 0.0;
  double y = 0.0;
};

// L∞ (maximum norm) distance, the metric of the paper's KSG formulation.
inline double ChebyshevDistance(const Point2& a, const Point2& b) {
  return std::max(std::fabs(a.x - b.x), std::fabs(a.y - b.y));
}

// Per-dimension extents of a point's k nearest neighbours: dx is the largest
// |x_i - x_j| and dy the largest |y_i - y_j| over the k neighbours found
// under L∞. These are exactly the (dx, dy) of the paper's Fig. 2, from which
// the marginal regions are formed.
struct KnnExtents {
  double dx = 0.0;
  double dy = 0.0;

  // Radius of the influenced region (Definition 7.1): d = max(dx, dy).
  double radius() const { return dx > dy ? dx : dy; }
};

// The kNN tie order — by distance, then by index: true when a sorts before b.
inline bool KnnBefore(const KnnEntry& a, const KnnEntry& b) {
  return a.d < b.d || (a.d == b.d && a.index < b.index);
}

// Writes `e` into the sorted list[0, last], shifting the entries it precedes
// up by one and overwriting list[last]: one step of a sorted insertion
// buffer, shared by KnnSelector and the incremental estimator's stored
// neighbour lists.
inline void InsertSorted(KnnEntry* list, size_t last, const KnnEntry& e) {
  size_t pos = last;
  for (; pos > 0 && KnnBefore(e, list[pos - 1]); --pos) {
    list[pos] = list[pos - 1];
  }
  list[pos] = e;
}

// Extents of the neighbours in `list` around `probe`; at(i) is the
// location of candidate i.
template <typename At>
KnnExtents ExtentsOf(std::span<const KnnEntry> list, const Point2& probe,
                     At at) {
  KnnExtents e;
  for (const KnnEntry& n : list) {
    const Point2& p = at(n.index);
    e.dx = std::max(e.dx, std::fabs(p.x - probe.x));
    e.dy = std::max(e.dy, std::fabs(p.y - probe.y));
  }
  return e;
}

// Keeps the k smallest candidates under the KnnBefore order — the single
// home of the kNN tie-break, so every backend selects the same set and
// reports bit-identical extents. A sorted insertion buffer: k is small
// (2–10 in practice), so shifting a few entries beats a heap, and
// k <= kInline needs no allocation at all.
class KnnSelector {
 public:
  explicit KnnSelector(int k) : k_(static_cast<size_t>(k)) {
    if (k_ > kInline) overflow_.resize(k_);
  }

  bool full() const { return size_ == k_; }
  size_t size() const { return size_; }

  // Distance of the k-th entry; +inf until k candidates have been seen.
  double worst() const { return worst_; }

  // The selected candidates, sorted in KnnBefore order.
  std::span<const KnnEntry> selected() const { return {data(), size_}; }

  // Offers one candidate, in any index order.
  void Offer(double d, size_t index) {
    if (full() && !KnnBefore({d, index}, data()[k_ - 1])) return;
    Insert(d, index);
  }

  // Offers one candidate whose index exceeds every index offered before
  // (a scan in index order): a distance tie then never displaces a selected
  // entry, so one `d < worst()` compare decides.
  void OfferAscending(double d, size_t index) {
    if (d < worst_ || !full()) Insert(d, index);
  }

  // Extents of the selected candidates around `probe`; points[i] is the
  // location of candidate i.
  template <typename Points>
  KnnExtents Extents(const Points& points, const Point2& probe) const {
    return ExtentsOf(selected(), probe,
                     [&](size_t i) -> const Point2& { return points[i]; });
  }

 private:
  static constexpr size_t kInline = 16;

  KnnEntry* data() { return k_ > kInline ? overflow_.data() : inline_.data(); }
  const KnnEntry* data() const {
    return k_ > kInline ? overflow_.data() : inline_.data();
  }

  // Places (d, index) in sorted position; when full, the caller has checked
  // that it beats the k-th entry, which it replaces.
  void Insert(double d, size_t index) {
    InsertSorted(data(), full() ? k_ - 1 : size_++, {d, index});
    if (full()) worst_ = data()[k_ - 1].d;
  }

  size_t k_;
  size_t size_ = 0;
  double worst_ = std::numeric_limits<double>::infinity();
  std::array<KnnEntry, kInline> inline_;
  std::vector<KnnEntry> overflow_;
};

}  // namespace tycos

#endif  // TYCOS_KNN_POINT_H_
