#include "mi/incremental_ksg.h"

#include <cmath>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mi/ksg.h"

namespace tycos {
namespace {

SeriesPair RandomPair(int64_t n, uint64_t seed, double coupling = 0.0) {
  Rng rng(seed);
  std::vector<double> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = rng.Normal();
    y[static_cast<size_t>(i)] =
        coupling * x[static_cast<size_t>(i)] + rng.Normal();
  }
  return SeriesPair(TimeSeries(std::move(x)), TimeSeries(std::move(y)));
}

double BatchMi(const SeriesPair& pair, const Window& w, int k) {
  KsgOptions o;
  o.k = k;
  o.backend = KnnBackend::kBrute;
  return KsgMi(pair, w, o);
}

TEST(IncrementalKsgTest, FirstWindowMatchesBatch) {
  const SeriesPair pair = RandomPair(300, 1, 0.8);
  IncrementalKsg inc(pair, 4);
  const Window w(10, 120, 0);
  EXPECT_EQ(inc.SetWindow(w), BatchMi(pair, w, 4));
}

TEST(IncrementalKsgTest, GrowEndOneStepAtATime) {
  const SeriesPair pair = RandomPair(400, 2, 0.5);
  IncrementalKsg inc(pair, 4);
  inc.SetWindow(Window(50, 80, 0));
  for (int64_t end = 81; end <= 140; ++end) {
    const Window w(50, end, 0);
    ASSERT_EQ(inc.SetWindow(w), BatchMi(pair, w, 4))
        << "end=" << end;
  }
  EXPECT_EQ(inc.stats().full_rebuilds, 1);  // only the initial window
  EXPECT_EQ(inc.stats().incremental_moves, 60);
}

TEST(IncrementalKsgTest, ShrinkFromBothSides) {
  const SeriesPair pair = RandomPair(300, 3, 0.9);
  IncrementalKsg inc(pair, 3);
  inc.SetWindow(Window(20, 200, 0));
  const Window shrunk(40, 170, 0);
  EXPECT_EQ(inc.SetWindow(shrunk), BatchMi(pair, shrunk, 3));
  EXPECT_EQ(inc.stats().full_rebuilds, 1);
}

TEST(IncrementalKsgTest, SlideWindowForward) {
  const SeriesPair pair = RandomPair(500, 4, 0.7);
  IncrementalKsg inc(pair, 4);
  inc.SetWindow(Window(0, 99, 0));
  for (int64_t s = 5; s <= 100; s += 5) {
    const Window w(s, s + 99, 0);
    ASSERT_EQ(inc.SetWindow(w), BatchMi(pair, w, 4)) << "s=" << s;
  }
  EXPECT_EQ(inc.stats().full_rebuilds, 1);
}

TEST(IncrementalKsgTest, LongSlideAndFrontGrowthStayExact) {
  // Slides far past the state buffers' slack and grows the front far below
  // the first window, so the buffers re-centre and grow under the live
  // window many times.
  const SeriesPair pair = RandomPair(1500, 11, 0.6);
  IncrementalKsg inc(pair, 4);
  for (int64_t s = 0; s <= 1000; s += 3) {
    const Window w(s, s + 119, 0);
    ASSERT_EQ(inc.SetWindow(w), BatchMi(pair, w, 4)) << w.ToString();
  }
  for (int64_t s = 960; s >= 200; s -= 40) {
    const Window w(s, 1119, 0);
    ASSERT_EQ(inc.SetWindow(w), BatchMi(pair, w, 4)) << w.ToString();
  }
  EXPECT_EQ(inc.stats().full_rebuilds, 1);
}

TEST(IncrementalKsgTest, DelayChangeTriggersRebuildButStaysCorrect) {
  const SeriesPair pair = RandomPair(300, 5, 0.6);
  IncrementalKsg inc(pair, 4);
  inc.SetWindow(Window(50, 150, 0));
  const Window shifted(50, 150, 7);
  EXPECT_EQ(inc.SetWindow(shifted), BatchMi(pair, shifted, 4));
  EXPECT_EQ(inc.stats().full_rebuilds, 2);
}

TEST(IncrementalKsgTest, DisjointJumpRebuilds) {
  const SeriesPair pair = RandomPair(600, 6, 0.4);
  IncrementalKsg inc(pair, 4);
  inc.SetWindow(Window(0, 60, 0));
  const Window far(400, 480, 0);
  EXPECT_EQ(inc.SetWindow(far), BatchMi(pair, far, 4));
  EXPECT_EQ(inc.stats().full_rebuilds, 2);
}

TEST(IncrementalKsgTest, NegativeDelays) {
  const SeriesPair pair = RandomPair(300, 7, 0.8);
  IncrementalKsg inc(pair, 4);
  const Window w(100, 180, -9);
  EXPECT_EQ(inc.SetWindow(w), BatchMi(pair, w, 4));
  const Window w2(95, 190, -9);
  EXPECT_EQ(inc.SetWindow(w2), BatchMi(pair, w2, 4));
}

TEST(IncrementalKsgTest, TooSmallWindowScoresZero) {
  const SeriesPair pair = RandomPair(100, 8);
  IncrementalKsg inc(pair, 4);
  EXPECT_EQ(inc.SetWindow(Window(0, 3, 0)), 0.0);
  EXPECT_EQ(inc.CurrentMi(), 0.0);
  // Recovers to a normal window afterwards.
  const Window w(0, 59, 0);
  const double mi = inc.SetWindow(w);
  EXPECT_EQ(mi, BatchMi(pair, w, 4));
  // A too-small probe scores 0 and leaves the live window alone, so the
  // next overlapping window is an incremental move, not a rebuild.
  EXPECT_EQ(inc.SetWindow(Window(10, 12, 0)), 0.0);
  EXPECT_EQ(inc.CurrentMi(), mi);
  const Window moved(5, 64, 0);
  EXPECT_EQ(inc.SetWindow(moved), BatchMi(pair, moved, 4));
  EXPECT_EQ(inc.stats().full_rebuilds, 1);
  EXPECT_EQ(inc.stats().incremental_moves, 1);
}

// Degenerate windows (a constant marginal or a non-finite sample) score 0
// on both estimators and count once on each, and a window one sample off
// such a patch is scored as usual. The constant patches alternate +0.0 and
// -0.0, which compare equal; the non-finite samples sit on a window's first
// or last sample.
TEST(IncrementalKsgTest, DegenerateWindowsMatchBatchClassification) {
  const SeriesPair random = RandomPair(300, 12, 0.7);
  std::vector<double> x = random.x().values();
  std::vector<double> y = random.y().values();
  for (size_t i = 100; i < 140; ++i) x[i] = i % 2 ? -0.0 : 0.0;
  for (size_t i = 150; i < 190; ++i) y[i] = i % 2 ? 0.0 : -0.0;
  x[60] = std::numeric_limits<double>::quiet_NaN();
  y[230] = std::numeric_limits<double>::infinity();
  const SeriesPair pair(TimeSeries(std::move(x)), TimeSeries(std::move(y)));

  struct Case {
    Window w;
    bool degenerate;
  };
  const Case cases[] = {
      {Window(99, 139, 0), false},   {Window(100, 139, 0), true},
      {Window(100, 140, 0), false},  {Window(110, 149, 40), true},
      {Window(111, 150, 40), false}, {Window(61, 100, 0), false},
      {Window(60, 99, 0), true},     {Window(21, 60, 0), true},
      {Window(20, 59, 0), false},    {Window(200, 239, -10), false},
      {Window(200, 240, -10), true}, {Window(201, 240, -10), true},
  };
  IncrementalKsg inc(pair, 4);
  KsgDiagnostics diagnostics;
  KsgOptions options;
  options.diagnostics = &diagnostics;
  int64_t degenerate = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.w.ToString());
    const double got = inc.SetWindow(c.w);
    const double want = KsgMi(pair, c.w, options);
    EXPECT_EQ(got, want);
    if (c.degenerate) {
      EXPECT_EQ(got, 0.0);
      ++degenerate;
    }
    EXPECT_EQ(inc.stats().degenerate_windows, degenerate);
    EXPECT_EQ(diagnostics.degenerate_windows, degenerate);
  }
  EXPECT_EQ(diagnostics.non_finite_inputs, 4);
}

TEST(IncrementalKsgTest, CurrentMiIsStableAcrossReads) {
  const SeriesPair pair = RandomPair(200, 9, 0.5);
  IncrementalKsg inc(pair, 4);
  const double v = inc.SetWindow(Window(10, 150, 2));
  EXPECT_EQ(inc.CurrentMi(), v);
  EXPECT_EQ(inc.CurrentMi(), v);
}

TEST(IncrementalKsgTest, MarginalUpdatesDominateKnnRecomputes) {
  // On smooth data, most added points should only touch IMRs, not IRs —
  // that's the whole point of Section 7.
  const SeriesPair pair = RandomPair(2000, 10, 0.3);
  IncrementalKsg inc(pair, 4);
  inc.SetWindow(Window(0, 499, 0));
  for (int64_t end = 500; end < 900; ++end) inc.SetWindow(Window(0, end, 0));
  const auto& st = inc.stats();
  EXPECT_GT(st.marginal_updates, 0);
  // Each added point scans all existing points for IR hits, but only a
  // small fraction are hit, and each hit is an O(k) insert into the stored
  // neighbour list: pure growth never removes a neighbour, so no point
  // ever searches again.
  EXPECT_GT(st.knn_list_inserts, 0);
  EXPECT_LT(st.knn_list_inserts, st.points_added * 60);
  EXPECT_EQ(st.knn_recomputes, 0);
}

struct WalkCase {
  int64_t n;
  int k;
  double coupling;
  uint64_t seed;
};

// Without a printer gtest dumps a parameter's raw bytes, and the padding
// after `k` would put uninitialized bytes into the names ctest lists.
void PrintTo(const WalkCase& c, std::ostream* os) {
  *os << "{" << c.n << ", " << c.k << ", " << c.coupling << ", " << c.seed
      << "}";
}

class IncrementalWalkTest : public ::testing::TestWithParam<WalkCase> {};

// The central property test: a random walk of window edits (grow, shrink,
// slide, delay changes, jumps) must track the batch estimator bit-for-bit.
TEST_P(IncrementalWalkTest, RandomEditWalkMatchesBatch) {
  const WalkCase c = GetParam();
  const SeriesPair pair = RandomPair(c.n, c.seed, c.coupling);
  IncrementalKsg inc(pair, c.k);
  Rng rng(c.seed * 31 + 7);

  int64_t start = c.n / 4;
  int64_t end = start + 50;
  int64_t delay = 0;
  for (int step = 0; step < 120; ++step) {
    const int64_t move = rng.UniformInt(0, 5);
    switch (move) {
      case 0:
        end = std::min(end + rng.UniformInt(1, 8), c.n - 1);
        break;
      case 1:
        end = std::max(end - rng.UniformInt(1, 8), start + c.k + 2);
        break;
      case 2:
        start = std::max<int64_t>(start - rng.UniformInt(1, 8), 0);
        break;
      case 3:
        start = std::min(start + rng.UniformInt(1, 8), end - c.k - 2);
        break;
      case 4:
        delay = rng.UniformInt(-10, 10);
        break;
      default: {  // occasional far jump
        start = rng.UniformInt(0, c.n - 80);
        end = start + rng.UniformInt(c.k + 2, 70);
        break;
      }
    }
    // Keep the Y window in range.
    if (start + delay < 0) delay = -start;
    if (end + delay >= c.n) delay = c.n - 1 - end;
    const Window w(start, end, delay);
    const double got = inc.SetWindow(w);
    const double expected = BatchMi(pair, w, c.k);
    ASSERT_EQ(got, expected)
        << "step " << step << " window " << w.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IncrementalWalkTest,
    ::testing::Values(WalkCase{400, 4, 0.0, 1}, WalkCase{400, 4, 0.9, 2},
                      WalkCase{600, 2, 0.5, 3}, WalkCase{600, 6, 0.5, 4},
                      WalkCase{300, 1, 0.7, 5}, WalkCase{500, 3, 0.2, 6}),
    [](const ::testing::TestParamInfo<WalkCase>& info) {
      return "n" + std::to_string(info.param.n) + "_k" +
             std::to_string(info.param.k) + "_seed" +
             std::to_string(info.param.seed);
    });

TEST(IncrementalWalkTest, DiscreteValuedDataWalk) {
  // Heavy ties (integer-valued series) stress the closed-interval counting.
  Rng rng(77);
  const int64_t n = 400;
  std::vector<double> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = static_cast<double>(rng.UniformInt(0, 6));
    y[static_cast<size_t>(i)] = static_cast<double>(rng.UniformInt(0, 6));
  }
  const SeriesPair pair(TimeSeries(std::move(x)), TimeSeries(std::move(y)));
  IncrementalKsg inc(pair, 4);
  inc.SetWindow(Window(0, 60, 0));
  for (int64_t end = 61; end <= 200; ++end) {
    const Window w(0, end, 0);
    ASSERT_EQ(inc.SetWindow(w), BatchMi(pair, w, 4)) << "end=" << end;
  }
}

}  // namespace
}  // namespace tycos
