#include "knn/brute_knn.h"

#include <vector>

#include "common/check.h"
#include "common/simd.h"

namespace tycos {

static_assert(sizeof(Point2) == 2 * sizeof(double),
              "Point2 must be two packed doubles");

void BruteKnnSelect(std::span<const Point2> points, const Point2& probe,
                    size_t exclude, KnnSelector* selector) {
  const size_t n = points.size();
  const double* xy = reinterpret_cast<const double*>(points.data());
  thread_local std::vector<double> dist;
  if (dist.size() < n) dist.resize(n);
  simd::ChebyshevToProbe(xy, n, probe.x, probe.y, dist.data());
  for (size_t j = 0; j < n; ++j) {
    if (j != exclude) selector->OfferAscending(dist[j], j);
  }
}

KnnExtents BruteKnnExtents(const std::vector<Point2>& points, size_t query,
                           int k) {
  TYCOS_CHECK_GE(k, 1);
  TYCOS_CHECK_LT(query, points.size());
  TYCOS_CHECK_GE(points.size(), static_cast<size_t>(k) + 1);
  KnnSelector selector(k);
  BruteKnnSelect(points, points[query], query, &selector);
  TYCOS_CHECK_EQ(selector.size(), static_cast<size_t>(k));
  return selector.Extents(points, points[query]);
}

}  // namespace tycos
