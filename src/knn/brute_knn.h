// Brute-force k-nearest-neighbour queries under the L∞ norm. O(m) per query;
// the reference backend against which the k-d tree is property-tested, and
// the incremental estimator's per-point re-search after a removal. The
// batch estimator and the incremental rebuild answer all queries of a
// window in one simd::KnnExtentsAll call instead (common/simd.h).

#ifndef TYCOS_KNN_BRUTE_KNN_H_
#define TYCOS_KNN_BRUTE_KNN_H_

#include <cstddef>
#include <span>
#include <vector>

#include "knn/point.h"

namespace tycos {

// The query body every brute-force query wraps: offers each points[j],
// j != exclude, to `selector` in index order. One vectorized distance row
// per query, then one `d < worst` compare per candidate: the row is
// scanned in index order, so KnnSelector::OfferAscending keeps the
// (distance, index) tie-break with no pair compare. The row lives in
// thread_local scratch, bounded by the largest set a thread has queried.
// `selector` must not have been offered anything yet.
void BruteKnnSelect(std::span<const Point2> points, const Point2& probe,
                    size_t exclude, KnnSelector* selector);

// Finds the per-dimension extents of the k nearest neighbours (L∞, self
// excluded) of points[query] among `points`. Requires k >= 1 and
// points.size() >= k + 1.
KnnExtents BruteKnnExtents(const std::vector<Point2>& points, size_t query,
                           int k);

}  // namespace tycos

#endif  // TYCOS_KNN_BRUTE_KNN_H_
