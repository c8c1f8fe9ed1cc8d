// 2-D point and k-NN query result types shared by the kNN backends, and the
// k-nearest selector every backend (and the incremental estimator) uses.

#ifndef TYCOS_KNN_POINT_H_
#define TYCOS_KNN_POINT_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <vector>

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

// Keeps the k smallest candidates under the lexicographic (distance, index)
// order — the single home of the kNN tie-break, so every backend selects
// the same set and reports bit-identical extents. A sorted insertion buffer:
// k is small (2–10 in practice), so shifting a few entries beats a heap,
// and k <= kInline needs no allocation at all.
class KnnSelector {
 public:
  explicit KnnSelector(int k) : k_(static_cast<size_t>(k)) {
    if (k_ > kInline) overflow_.resize(k_);
  }

  bool full() const { return size_ == k_; }
  size_t size() const { return size_; }

  // Distance of the k-th entry; +inf until k candidates have been seen.
  double worst() const { return worst_; }

  // Offers one candidate, in any index order.
  void Offer(double d, size_t index) {
    if (full()) {
      const Entry& w = entries()[k_ - 1];
      if (!(d < w.d || (d == w.d && index < w.index))) return;
    }
    Insert(d, index);
  }

  // Offers one candidate whose index exceeds every index offered before
  // (a scan in index order): a distance tie then never displaces a selected
  // entry, so one `d < worst()` compare decides.
  void OfferAscending(double d, size_t index) {
    if (d < worst_ || !full()) Insert(d, index);
  }

  // Extents of the selected candidates around `probe`; proj(points[i]) is
  // the location of candidate i.
  template <typename Points, typename Proj = std::identity>
  KnnExtents Extents(const Points& points, const Point2& probe,
                     Proj proj = {}) const {
    KnnExtents e;
    for (size_t t = 0; t < size_; ++t) {
      const Point2& p = std::invoke(proj, points[entries()[t].index]);
      e.dx = std::max(e.dx, std::fabs(p.x - probe.x));
      e.dy = std::max(e.dy, std::fabs(p.y - probe.y));
    }
    return e;
  }

 private:
  struct Entry {
    double d;
    size_t index;
  };
  static constexpr size_t kInline = 16;

  Entry* entries() { return k_ > kInline ? overflow_.data() : inline_.data(); }
  const Entry* entries() const {
    return k_ > kInline ? overflow_.data() : inline_.data();
  }

  // Places (d, index) in sorted position; when full, the caller has checked
  // that it beats the k-th entry, which it replaces.
  void Insert(double d, size_t index) {
    Entry* e = entries();
    size_t pos = full() ? k_ - 1 : size_++;
    for (; pos > 0; --pos) {
      const Entry& prev = e[pos - 1];
      if (!(d < prev.d || (d == prev.d && index < prev.index))) break;
      e[pos] = prev;
    }
    e[pos] = {d, index};
    if (full()) worst_ = e[k_ - 1].d;
  }

  size_t k_;
  size_t size_ = 0;
  double worst_ = std::numeric_limits<double>::infinity();
  std::array<Entry, kInline> inline_;
  std::vector<Entry> overflow_;
};

}  // namespace tycos

#endif  // TYCOS_KNN_POINT_H_
