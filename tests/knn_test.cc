#include <algorithm>
#include <cfloat>
#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/simd.h"
#include "knn/brute_knn.h"
#include "knn/grid_index.h"
#include "knn/kd_tree.h"
#include "knn/rank_index.h"
#include "mi/incremental_ksg.h"

namespace tycos {
namespace {

TEST(ChebyshevDistanceTest, MaxNorm) {
  EXPECT_DOUBLE_EQ(ChebyshevDistance({0, 0}, {3, 4}), 4.0);
  EXPECT_DOUBLE_EQ(ChebyshevDistance({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(ChebyshevDistance({-2, 0}, {2, 1}), 4.0);
}

TEST(KnnExtentsTest, RadiusIsMax) {
  KnnExtents e{0.5, 0.8};
  EXPECT_DOUBLE_EQ(e.radius(), 0.8);
}

TEST(BruteKnnTest, PaperFigure2Example) {
  // Seven points roughly like the paper's Fig. 2: p1's two nearest
  // neighbours define the extents from which marginal counts come.
  std::vector<Point2> pts = {{2, 2}, {3, 2.5}, {2.5, 3}, {1.5, 4.5},
                             {4.5, 1.5}, {6, 5}, {0.2, 6.5}};
  const KnnExtents e = BruteKnnExtents(pts, 0, 2);
  // Neighbours of p1=(2,2) under L∞: p2 (d=1.0) and p3 (d=1.0).
  EXPECT_DOUBLE_EQ(e.dx, 1.0);   // max(|3-2|, |2.5-2|)
  EXPECT_DOUBLE_EQ(e.dy, 1.0);   // max(|2.5-2|, |3-2|)
}

TEST(BruteKnnTest, SimpleLine) {
  std::vector<Point2> pts = {{0, 0}, {1, 0}, {2, 0}, {4, 0}, {8, 0}};
  const KnnExtents e = BruteKnnExtents(pts, 0, 2);
  EXPECT_DOUBLE_EQ(e.dx, 2.0);
  EXPECT_DOUBLE_EQ(e.dy, 0.0);
}

struct KnnCase {
  int n;
  int k;
  uint64_t seed;
};

class KdTreeAgreementTest : public ::testing::TestWithParam<KnnCase> {};

TEST_P(KdTreeAgreementTest, MatchesBruteForceExactly) {
  const KnnCase c = GetParam();
  Rng rng(c.seed);
  std::vector<Point2> pts(static_cast<size_t>(c.n));
  for (auto& p : pts) {
    p.x = rng.Normal(0.0, 1.0);
    p.y = rng.Normal(0.0, 1.0);
  }
  KdTree tree(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    const KnnExtents brute = BruteKnnExtents(pts, i, c.k);
    const KnnExtents kd = tree.QueryExtents(i, c.k);
    ASSERT_DOUBLE_EQ(kd.dx, brute.dx) << "point " << i;
    ASSERT_DOUBLE_EQ(kd.dy, brute.dy) << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KdTreeAgreementTest,
    ::testing::Values(KnnCase{10, 1, 1}, KnnCase{10, 3, 2}, KnnCase{50, 2, 3},
                      KnnCase{100, 4, 4}, KnnCase{200, 4, 5},
                      KnnCase{333, 6, 6}, KnnCase{512, 8, 7},
                      KnnCase{1000, 4, 8}));

TEST(KdTreeAgreementTest, DuplicateCoordinates) {
  // Heavy ties: integer grid points repeated.
  Rng rng(99);
  std::vector<Point2> pts(200);
  for (auto& p : pts) {
    p.x = static_cast<double>(rng.UniformInt(0, 4));
    p.y = static_cast<double>(rng.UniformInt(0, 4));
  }
  KdTree tree(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    const KnnExtents brute = BruteKnnExtents(pts, i, 3);
    const KnnExtents kd = tree.QueryExtents(i, 3);
    ASSERT_DOUBLE_EQ(kd.dx, brute.dx) << "point " << i;
    ASSERT_DOUBLE_EQ(kd.dy, brute.dy) << "point " << i;
  }
}

class GridIndexAgreementTest : public ::testing::TestWithParam<KnnCase> {};

TEST_P(GridIndexAgreementTest, MatchesBruteForceExactly) {
  const KnnCase c = GetParam();
  Rng rng(c.seed + 1000);
  std::vector<Point2> pts(static_cast<size_t>(c.n));
  for (auto& p : pts) {
    p.x = rng.Normal(0.0, 1.0);
    p.y = rng.Normal(0.0, 1.0);
  }
  GridIndex grid(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    const KnnExtents brute = BruteKnnExtents(pts, i, c.k);
    const KnnExtents g = grid.QueryExtents(i, c.k);
    ASSERT_DOUBLE_EQ(g.dx, brute.dx) << "point " << i;
    ASSERT_DOUBLE_EQ(g.dy, brute.dy) << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridIndexAgreementTest,
    ::testing::Values(KnnCase{10, 1, 1}, KnnCase{10, 3, 2}, KnnCase{50, 2, 3},
                      KnnCase{100, 4, 4}, KnnCase{200, 4, 5},
                      KnnCase{333, 6, 6}, KnnCase{512, 8, 7},
                      KnnCase{1000, 4, 8}));

TEST(GridIndexTest, DuplicateCoordinates) {
  Rng rng(101);
  std::vector<Point2> pts(200);
  for (auto& p : pts) {
    p.x = static_cast<double>(rng.UniformInt(0, 4));
    p.y = static_cast<double>(rng.UniformInt(0, 4));
  }
  GridIndex grid(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    const KnnExtents brute = BruteKnnExtents(pts, i, 3);
    const KnnExtents g = grid.QueryExtents(i, 3);
    ASSERT_DOUBLE_EQ(g.dx, brute.dx) << "point " << i;
    ASSERT_DOUBLE_EQ(g.dy, brute.dy) << "point " << i;
  }
}

TEST(GridIndexTest, SkewedAspectRatio) {
  // x spans 1000x the range of y: cells stay square, grid gets elongated.
  Rng rng(103);
  std::vector<Point2> pts(300);
  for (auto& p : pts) {
    p.x = rng.Uniform(0, 1000);
    p.y = rng.Uniform(0, 1);
  }
  GridIndex grid(pts);
  for (size_t i = 0; i < pts.size(); ++i) {
    const KnnExtents brute = BruteKnnExtents(pts, i, 4);
    const KnnExtents g = grid.QueryExtents(i, 4);
    ASSERT_DOUBLE_EQ(g.dx, brute.dx);
    ASSERT_DOUBLE_EQ(g.dy, brute.dy);
  }
}

TEST(GridIndexTest, AllPointsIdentical) {
  std::vector<Point2> pts(20, Point2{1.5, -2.5});
  GridIndex grid(pts);
  const KnnExtents e = grid.QueryExtents(0, 3);
  EXPECT_DOUBLE_EQ(e.dx, 0.0);
  EXPECT_DOUBLE_EQ(e.dy, 0.0);
}

TEST(RankIndexTest, InsertEraseCount) {
  RankIndex idx({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_EQ(idx.size(), 0);
  idx.Insert(2.0);
  idx.Insert(3.0);
  idx.Insert(3.0);  // duplicates allowed
  EXPECT_EQ(idx.size(), 3);
  EXPECT_EQ(idx.CountInRange(2.0, 3.0), 3);
  EXPECT_EQ(idx.CountInRange(2.5, 10.0), 2);
  idx.Erase(3.0);
  EXPECT_EQ(idx.CountInRange(2.0, 3.0), 2);
  EXPECT_EQ(idx.size(), 2);
}

TEST(RankIndexTest, ClosedIntervalSemantics) {
  RankIndex idx({1.0, 2.0, 3.0});
  idx.Insert(1.0);
  idx.Insert(3.0);
  EXPECT_EQ(idx.CountInRange(1.0, 3.0), 2);  // endpoints included
  EXPECT_EQ(idx.CountInRange(1.0001, 2.9999), 0);
  EXPECT_EQ(idx.CountInRange(3.0, 1.0), 0);  // inverted interval
}

TEST(RankIndexTest, RangeOutsideUniverse) {
  RankIndex idx({5.0, 6.0});
  idx.Insert(5.0);
  EXPECT_EQ(idx.CountInRange(-100.0, 100.0), 1);
  EXPECT_EQ(idx.CountInRange(7.0, 9.0), 0);
  EXPECT_EQ(idx.CountInRange(-9.0, 4.0), 0);
}

TEST(RankIndexTest, EmptyRangeCounts) {
  // A degenerate query interval must count 0 whether the index is empty,
  // the interval is inverted, or it falls between stored values.
  RankIndex idx({1.0, 2.0, 3.0, 4.0});
  EXPECT_EQ(idx.CountInRange(1.0, 4.0), 0);  // index is empty
  idx.Insert(1.0);
  idx.Insert(4.0);
  EXPECT_EQ(idx.CountInRange(2.0, 3.0), 0);   // gap between stored values
  EXPECT_EQ(idx.CountInRange(4.0, 1.0), 0);   // inverted interval
  EXPECT_EQ(idx.CountInRange(1.5, 1.5), 0);   // point query, no occupant
  EXPECT_EQ(idx.CountInRange(4.0, 4.0), 1);   // point query, occupied
}

TEST(RankIndexTest, FullRangeCountsEqualSize) {
  // A closed interval covering the whole universe must count exactly
  // size(), with duplicates multiplicity-counted — the incremental KSG's
  // "count minus self" arithmetic depends on this.
  RankIndex idx({-2.0, 0.0, 3.5});
  idx.Insert(-2.0);
  idx.Insert(0.0);
  idx.Insert(0.0);
  idx.Insert(3.5);
  EXPECT_EQ(idx.size(), 4);
  EXPECT_EQ(idx.CountInRange(-2.0, 3.5), 4);      // exact hull
  EXPECT_EQ(idx.CountInRange(-1e300, 1e300), 4);  // unbounded hull
  idx.Erase(0.0);
  EXPECT_EQ(idx.CountInRange(-2.0, 3.5), 3);      // multiplicity respected
  EXPECT_EQ(idx.CountInRange(-2.0, 3.5), idx.size());
}

TEST(RankIndexTest, MatchesNaiveCountingUnderRandomOps) {
  Rng rng(17);
  std::vector<double> universe;
  for (int i = 0; i < 200; ++i) universe.push_back(rng.Uniform(-10, 10));
  RankIndex idx(universe);
  std::vector<double> present;
  for (int op = 0; op < 2000; ++op) {
    if (present.empty() || rng.Bernoulli(0.6)) {
      const double v =
          universe[static_cast<size_t>(rng.UniformInt(0, 199))];
      idx.Insert(v);
      present.push_back(v);
    } else {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(present.size()) - 1));
      idx.Erase(present[pos]);
      present.erase(present.begin() + static_cast<long>(pos));
    }
    if (op % 50 == 0) {
      const double lo = rng.Uniform(-12, 12);
      const double hi = lo + rng.Uniform(0, 8);
      int64_t naive = 0;
      for (double v : present) {
        if (v >= lo && v <= hi) ++naive;
      }
      ASSERT_EQ(idx.CountInRange(lo, hi), naive) << "op " << op;
    }
  }
}

// --- Reference model -------------------------------------------------------
//
// The oracle sorts every candidate by (distance, index) and takes the first
// k: the tie-break the backends promise, with no pruning, heap or selector
// involved. Every backend must match its extents exactly.

KnnExtents OracleExtents(const std::vector<Point2>& pts, const Point2& probe,
                         int k, size_t exclude) {
  std::vector<std::pair<double, size_t>> all;
  for (size_t i = 0; i < pts.size(); ++i) {
    if (i != exclude) all.emplace_back(ChebyshevDistance(pts[i], probe), i);
  }
  std::sort(all.begin(), all.end());
  KnnExtents e;
  for (size_t t = 0; t < static_cast<size_t>(k); ++t) {
    const Point2& p = pts[all[t].second];
    e.dx = std::max(e.dx, std::fabs(p.x - probe.x));
    e.dy = std::max(e.dy, std::fabs(p.y - probe.y));
  }
  return e;
}

enum class Cloud { kLattice, kGaussian, kHuge };

// Lattice points sit on a 5x5 integer grid, so nearly every query has
// distance ties at its k-th neighbour and the tie-break decides the extents.
// Huge points put a third of their coordinates at ±DBL_MAX beside normal
// ones: finite samples whose span, and many of whose distances, overflow
// to +inf (the grid then falls back to one cell).
std::vector<Point2> MakeCloud(Cloud cloud, size_t n, uint64_t seed) {
  Rng rng(seed);
  const auto huge = [&rng] {
    if (rng.UniformInt(0, 2) != 0) return rng.Normal(0.0, 1.0);
    return rng.Bernoulli(0.5) ? DBL_MAX : -DBL_MAX;
  };
  std::vector<Point2> pts(n);
  for (Point2& p : pts) {
    if (cloud == Cloud::kLattice) {
      p.x = static_cast<double>(rng.UniformInt(0, 4));
      p.y = static_cast<double>(rng.UniformInt(0, 4));
    } else if (cloud == Cloud::kHuge) {
      p.x = huge();
      p.y = huge();
    } else {
      p.x = rng.Normal(0.0, 1.0);
      p.y = rng.Normal(0.0, 1.0);
    }
  }
  return pts;
}

void ExpectSameExtents(const KnnExtents& got, const KnnExtents& want,
                       const std::string& where) {
  EXPECT_EQ(got.dx, want.dx) << where;
  EXPECT_EQ(got.dy, want.dy) << where;
}

class KnnReferenceTest
    : public ::testing::TestWithParam<std::tuple<Cloud, int, int>> {};

TEST_P(KnnReferenceTest, BackendsMatchSortedOracle) {
  const auto [cloud, k, n_param] = GetParam();
  // n_param 0 stands for the smallest legal set, k + 1 points.
  const size_t n = static_cast<size_t>(n_param == 0 ? k + 1 : n_param);
  const std::vector<Point2> pts =
      MakeCloud(cloud, n, 7 * n + static_cast<uint64_t>(k));
  KdTree tree(pts);
  GridIndex grid(pts);
  std::vector<double> xs, ys;
  for (const Point2& p : pts) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  std::vector<double> batch_dx(n), batch_dy(n);
  simd::KnnExtentsAll(xs.data(), ys.data(), n, static_cast<size_t>(k),
                      batch_dx.data(), batch_dy.data());
  for (size_t i = 0; i < n; ++i) {
    const KnnExtents want = OracleExtents(pts, pts[i], k, i);
    const std::string at = "query " + std::to_string(i);
    ExpectSameExtents(BruteKnnExtents(pts, i, k), want, "brute " + at);
    ExpectSameExtents(tree.QueryExtents(i, k), want, "kd " + at);
    ExpectSameExtents(grid.QueryExtents(i, k), want, "grid " + at);
    ExpectSameExtents({batch_dx[i], batch_dy[i]}, want, "batch " + at);
  }
}

class IncrementalKnnReferenceTest
    : public ::testing::TestWithParam<std::tuple<Cloud, int>> {};

TEST_P(IncrementalKnnReferenceTest, EditWalkMatchesSortedOracle) {
  const auto [cloud, k] = GetParam();
  const std::vector<Point2> pts = MakeCloud(cloud, 400, 31 + k);
  std::vector<double> xs, ys;
  for (const Point2& p : pts) {
    xs.push_back(p.x);
    ys.push_back(p.y);
  }
  const SeriesPair pair{TimeSeries(xs), TimeSeries(ys)};
  IncrementalKsg inc(pair, k);
  // Delay 0: window slot j holds pts[start + j]. Grow, shrink, slide, jump,
  // then a disjoint jump to 291 points, which SetWindow can only serve by a
  // rebuild, then growth by 64 at the front, at the back and at both ends at
  // once (noise pruning's block growth).
  const Window walk[] = {
      Window(40, 80, 0),   Window(40, 95, 0),   Window(30, 95, 0),
      Window(35, 90, 0),   Window(50, 105, 0),  Window(52, 104, 0),
      Window(45, 120, 0),  Window(60, 340, 0),  Window(62, 345, 0),
      Window(300, 330, 0), Window(0, 290, 0),   Window(200, 230, 0),
      Window(190, 235, 0), Window(205, 232, 0), Window(141, 232, 0),
      Window(141, 296, 0), Window(77, 360, 0),  Window(80, 362, 0),
  };
  for (const Window& w : walk) {
    inc.SetWindow(w);
    ASSERT_EQ(inc.stats().degenerate_windows, 0) << w.ToString();
    const std::vector<Point2> active(pts.begin() + w.start,
                                     pts.begin() + w.end + 1);
    for (size_t j = 0; j < active.size(); ++j) {
      ExpectSameExtents(inc.PointExtents(j),
                        OracleExtents(active, active[j], k, j),
                        w.ToString() + " slot " + std::to_string(j));
    }
  }
  EXPECT_GT(inc.stats().incremental_moves, 0);
  EXPECT_GT(inc.stats().knn_recomputes, 0);
  EXPECT_GT(inc.stats().knn_list_inserts, 0);
}

std::string CloudName(Cloud cloud) {
  switch (cloud) {
    case Cloud::kLattice:
      return "Lattice";
    case Cloud::kGaussian:
      return "Gaussian";
    case Cloud::kHuge:
      return "Huge";
  }
  return "";
}

std::string ReferenceCaseName(
    const ::testing::TestParamInfo<KnnReferenceTest::ParamType>& info) {
  const int n = std::get<2>(info.param);
  return CloudName(std::get<0>(info.param)) +
         "_k" + std::to_string(std::get<1>(info.param)) + "_n" +
         (n == 0 ? std::string("kPlus1") : std::to_string(n));
}

INSTANTIATE_TEST_SUITE_P(
    CloudsKs, KnnReferenceTest,
    ::testing::Combine(::testing::Values(Cloud::kLattice, Cloud::kGaussian),
                       ::testing::Values(1, 3, 4, 8),
                       ::testing::Values(0, 16, 96, 300)),
    ReferenceCaseName);

// k = 16 fills KnnSelector's inline buffer and k = 20 overflows it; both
// need more than 16 points, so they skip the n = 16 case.
INSTANTIATE_TEST_SUITE_P(
    LargeKs, KnnReferenceTest,
    ::testing::Combine(::testing::Values(Cloud::kLattice, Cloud::kGaussian),
                       ::testing::Values(16, 20),
                       ::testing::Values(0, 96, 300)),
    ReferenceCaseName);

// DBL_MAX-scale coordinates: distances and the grid's span overflow to
// +inf, ties at +inf fall to the index order, and no backend may convert a
// non-finite quotient to an integer (the estimator-asan preset traps
// float-cast-overflow).
INSTANTIATE_TEST_SUITE_P(
    HugeClouds, KnnReferenceTest,
    ::testing::Combine(::testing::Values(Cloud::kHuge),
                       ::testing::Values(1, 4, 8),
                       ::testing::Values(0, 16, 96)),
    ReferenceCaseName);

INSTANTIATE_TEST_SUITE_P(
    CloudsKs, IncrementalKnnReferenceTest,
    ::testing::Combine(::testing::Values(Cloud::kLattice, Cloud::kGaussian),
                       ::testing::Values(1, 3, 4, 8)),
    [](const ::testing::TestParamInfo<IncrementalKnnReferenceTest::ParamType>&
           info) {
      return CloudName(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(KnnSelectorTest, KeepsFirstKUnderDistanceThenIndex) {
  // Offered out of index order, with ties: (1, 2) beats (1, 5), and the
  // later (1, 0) displaces (1, 2) from the k-th slot.
  KnnSelector selector(2);
  const std::vector<Point2> pts = {{0, 1}, {0, 3}, {1, 0}, {0, 0}, {9, 9},
                                   {0.5, 1}};
  selector.Offer(1.0, 5);
  selector.Offer(1.0, 2);
  EXPECT_TRUE(selector.full());
  EXPECT_EQ(selector.worst(), 1.0);
  selector.Offer(0.0, 3);
  selector.Offer(1.0, 0);
  selector.Offer(3.0, 1);
  const KnnExtents e = selector.Extents(pts, Point2{0, 0});
  EXPECT_EQ(e.dx, 0.0);  // {0,0} (index 3) and {0,1} (index 0)
  EXPECT_EQ(e.dy, 1.0);
}

TEST(KnnSelectorTest, LargeKBeyondInlineCapacity) {
  const std::vector<Point2> pts = MakeCloud(Cloud::kLattice, 200, 5);
  for (const int k : {17, 40}) {
    KnnSelector selector(k);
    for (size_t j = 1; j < pts.size(); ++j) {
      selector.OfferAscending(ChebyshevDistance(pts[j], pts[0]), j);
    }
    ExpectSameExtents(selector.Extents(pts, pts[0]),
                      OracleExtents(pts, pts[0], k, 0),
                      "k=" + std::to_string(k));
    ExpectSameExtents(BruteKnnExtents(pts, 0, k),
                      OracleExtents(pts, pts[0], k, 0),
                      "brute k=" + std::to_string(k));
  }
}

}  // namespace
}  // namespace tycos
