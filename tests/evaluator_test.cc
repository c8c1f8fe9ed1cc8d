#include "search/evaluator.h"

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/relations.h"
#include "obs/metrics.h"

namespace tycos {
namespace {

SeriesPair MakePair(int64_t n, uint64_t seed, double coupling) {
  Rng rng(seed);
  std::vector<double> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = rng.Normal();
    y[static_cast<size_t>(i)] =
        coupling * x[static_cast<size_t>(i)] + rng.Normal();
  }
  return SeriesPair(TimeSeries(std::move(x)), TimeSeries(std::move(y)));
}

TycosParams Params() {
  TycosParams p;
  p.s_min = 16;
  p.s_max = 400;
  p.td_max = 8;
  return p;
}

TEST(BatchEvaluatorTest, ScoreIsInUnitInterval) {
  const SeriesPair pair = MakePair(500, 1, 0.8);
  BatchEvaluator eval(pair, Params());
  for (int64_t s = 0; s < 300; s += 50) {
    const double score = eval.Score(Window(s, s + 120, 2));
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
  EXPECT_EQ(eval.evaluations(), 6);
}

TEST(BatchEvaluatorTest, StrongerCouplingScoresHigher) {
  const SeriesPair weak = MakePair(600, 2, 0.2);
  const SeriesPair strong = MakePair(600, 2, 2.0);
  BatchEvaluator weak_eval(weak, Params());
  BatchEvaluator strong_eval(strong, Params());
  const Window w(100, 400, 0);
  EXPECT_GT(strong_eval.Score(w), weak_eval.Score(w) + 0.2);
}

TEST(IncrementalEvaluatorTest, MatchesBatchAboveAndBelowThreshold) {
  const SeriesPair pair = MakePair(800, 3, 0.7);
  const TycosParams params = Params();
  BatchEvaluator batch(pair, params);
  IncrementalEvaluator inc(pair, params, /*small_window_threshold=*/96);
  // Below the threshold (stateless path) and above it (incremental path).
  for (const Window w : {Window(10, 60, 1), Window(100, 350, -2),
                         Window(120, 380, -2), Window(40, 80, 0),
                         Window(130, 390, -2)}) {
    EXPECT_EQ(inc.Score(w), batch.Score(w)) << w.ToString();
  }
}

// Both evaluators score a window exactly as NormalizedMi scores its
// samples, in both normalization modes. The entropy ratio reads the window's
// samples for H_w, X from w.start and Y from w.y_start(); the delay-3
// windows score above 0, so H_w is computed and a misread Y side shows.
TEST(EvaluatorTest, ScoresMatchNormalizedMiInBothModes) {
  constexpr int64_t kN = 800;
  Rng rng(23);
  std::vector<double> x(static_cast<size_t>(kN)), y(x.size());
  for (double& v : x) v = rng.Normal();
  for (size_t i = 0; i < y.size(); ++i) {
    y[i] = (i >= 3 ? 1.5 * x[i - 3] : 0.0) + rng.Normal();
  }
  const SeriesPair pair(TimeSeries(std::move(x)), TimeSeries(std::move(y)));
  for (const MiNormalization mode : {MiNormalization::kCorrelationCoefficient,
                                     MiNormalization::kEntropyRatio}) {
    TycosParams params = Params();
    params.normalization = mode;
    BatchEvaluator batch(pair, params);
    IncrementalEvaluator inc(pair, params, /*small_window_threshold=*/96);
    // 64 and 200 samples: either side of the incremental threshold.
    for (const Window w : {Window(100, 163, 3), Window(300, 499, 3),
                           Window(120, 183, -8), Window(500, 699, -8)}) {
      const double want = NormalizedMi(pair, w, {params.k}, mode,
                                       params.small_sample_penalty);
      EXPECT_EQ(batch.Score(w), want) << w.ToString();
      EXPECT_EQ(inc.Score(w), want) << w.ToString();
      if (w.delay == 3) {
        EXPECT_GT(want, 0.0) << w.ToString();
      }
    }
  }
}

enum class WalkData { kGaussian, kLattice };

// A coupled pair with a constant 160-sample stretch in x at [600, 760):
// windows inside it are degenerate probes. Lattice values sit on a 7-level
// grid, so kNN distances tie at nearly every point.
SeriesPair WalkPair(WalkData data, uint64_t seed) {
  constexpr int64_t kN = 1400;
  Rng rng(seed);
  std::vector<double> x(static_cast<size_t>(kN)), y(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    if (data == WalkData::kLattice) {
      x[i] = static_cast<double>(rng.UniformInt(0, 6));
      y[i] = static_cast<double>((static_cast<int64_t>(x[i]) +
                                  rng.UniformInt(0, 2)) % 7);
    } else {
      x[i] = rng.Normal();
      y[i] = 0.6 * x[i] + rng.Normal();
    }
  }
  for (size_t i = 600; i < 760; ++i) x[i] = 2.0;
  return SeriesPair(TimeSeries(std::move(x)), TimeSeries(std::move(y)));
}

class EvaluatorWalkTest
    : public ::testing::TestWithParam<std::tuple<WalkData, int>> {};

// The search's edit mix, replayed through both evaluators: 64-sample growth
// at either end (noise pruning's block growth), ±δ slides (LAHC moves),
// delay changes, shrinks back towards 96 samples, small stateless probes
// and degenerate probes. Every score must be identical, not just close.
TEST_P(EvaluatorWalkTest, IncrementalScoresEqualBatchScores) {
  const auto [data, k] = GetParam();
  const SeriesPair pair = WalkPair(data, 40 + static_cast<uint64_t>(k));
  const int64_t n = pair.size();
  TycosParams params = Params();
  params.k = k;
  BatchEvaluator batch(pair, params);
  IncrementalEvaluator inc(pair, params, /*small_window_threshold=*/96);
  Rng rng(static_cast<uint64_t>(k) * 131 + (data == WalkData::kLattice));

  int64_t start = 100;
  int64_t end = 195;
  int64_t delay = 0;
  for (int step = 0; step < 160; ++step) {
    Window probe(0, 0, 0);
    bool moves = true;
    switch (rng.UniformInt(0, 7)) {
      case 0:
        start = std::max<int64_t>(start - 64, 8);
        break;
      case 1:
        end = std::min<int64_t>(end + 64, n - 9);
        break;
      case 2:
      case 3: {
        const int64_t d = rng.UniformInt(1, 6) * (rng.Bernoulli(0.5) ? 1 : -1);
        if (start + d >= 8 && end + d <= n - 9) {
          start += d;
          end += d;
        }
        break;
      }
      case 4:
        delay = rng.UniformInt(-8, 8);
        break;
      case 5:
        // Shrink back towards 96 samples from a random end.
        if (rng.Bernoulli(0.5)) {
          start = std::min(start + 64, end - 95);
        } else {
          end = std::max(end - 64, start + 95);
        }
        break;
      case 6: {
        const int64_t s = rng.UniformInt(8, n - 80);
        probe = Window(s, s + rng.UniformInt(k + 2, 60), delay);
        moves = false;
        break;
      }
      default: {
        const int64_t s = rng.UniformInt(600, 640);
        probe = Window(s, s + rng.UniformInt(96, 118), 0);
        moves = false;
        break;
      }
    }
    const Window w = moves ? Window(start, end, delay) : probe;
    ASSERT_EQ(inc.Score(w), batch.Score(w))
        << "step " << step << " window " << w.ToString();
  }
  const IncrementalKsgStats& st = inc.incremental_stats();
  EXPECT_GT(st.incremental_moves, 0);
  EXPECT_GT(st.knn_list_inserts, 0);
  EXPECT_GT(st.knn_recomputes, 0);
  EXPECT_GT(st.degenerate_windows, 0);
}

INSTANTIATE_TEST_SUITE_P(
    DataKs, EvaluatorWalkTest,
    ::testing::Combine(::testing::Values(WalkData::kGaussian,
                                         WalkData::kLattice),
                       ::testing::Values(1, 4, 8, 20)),
    [](const ::testing::TestParamInfo<EvaluatorWalkTest::ParamType>& info) {
      return std::string(std::get<0>(info.param) == WalkData::kLattice
                             ? "Lattice"
                             : "Gaussian") +
             "_k" + std::to_string(std::get<1>(info.param));
    });

TEST(IncrementalEvaluatorTest, SmallWindowsDoNotDisturbLargeState) {
  const SeriesPair pair = MakePair(800, 4, 0.5);
  const TycosParams params = Params();
  BatchEvaluator batch(pair, params);
  IncrementalEvaluator inc(pair, params, /*small_window_threshold=*/96);
  // Small windows first: they are scored statelessly and never reach the
  // incremental estimator, so it neither counts nor publishes anything.
  const obs::MetricsSnapshot before = obs::Snapshot();
  for (const Window& w :
       {Window(10, 40, 0), Window(50, 80, 3), Window(200, 294, -2)}) {
    EXPECT_EQ(inc.Score(w), batch.Score(w)) << w.ToString();
  }
  const IncrementalKsgStats& idle = inc.incremental_stats();
  for (const int64_t v :
       {idle.full_rebuilds, idle.incremental_moves, idle.points_added,
        idle.points_removed, idle.knn_recomputes, idle.knn_list_inserts,
        idle.marginal_updates, idle.degenerate_windows}) {
    EXPECT_EQ(v, 0);
  }
  inc.FlushObsCounters();
  const obs::MetricsSnapshot after = obs::Snapshot();
  std::vector<std::string> names = {
      "incremental.full_rebuilds",    "incremental.incremental_moves",
      "incremental.points_added",     "incremental.points_removed",
      "incremental.knn_recomputes",   "incremental.knn_list_inserts",
      "incremental.marginal_updates"};
  for (const obs::CounterSnapshot& c : after.counters) {
    if (c.name.rfind("incremental.", 0) == 0) names.push_back(c.name);
  }
  for (const std::string& name : names) {
    EXPECT_EQ(after.CounterValue(name), before.CounterValue(name)) << name;
  }
  EXPECT_EQ(after.CounterValue("mi.evaluations") -
                before.CounterValue("mi.evaluations"),
            3);

  // The first large window builds the estimator with one full rebuild and
  // scores what the batch estimator scores.
  const Window large(100, 400, 0);
  EXPECT_EQ(inc.Score(large), batch.Score(large));
  EXPECT_EQ(inc.incremental_stats().full_rebuilds, 1);
  EXPECT_EQ(inc.incremental_stats().incremental_moves, 0);
  inc.Score(Window(10, 40, 0));   // stateless
  inc.Score(Window(50, 80, 3));   // stateless
  EXPECT_EQ(inc.incremental_stats().full_rebuilds, 1);
  // Returning to an overlapping large window is an incremental move.
  inc.Score(Window(110, 410, 0));
  EXPECT_EQ(inc.incremental_stats().full_rebuilds, 1);
  EXPECT_GT(inc.incremental_stats().incremental_moves, 0);
}

TEST(CachingEvaluatorTest, SecondLookupHitsCache) {
  const SeriesPair pair = MakePair(400, 5, 0.6);
  auto inner = std::make_unique<BatchEvaluator>(pair, Params());
  CachingEvaluator cache(std::move(inner));
  const Window w(50, 200, 1);
  const double first = cache.Score(w);
  const double second = cache.Score(w);
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_EQ(cache.cache_hits(), 1);
  EXPECT_EQ(cache.evaluations(), 1);  // inner evaluator ran once
}

TEST(CachingEvaluatorTest, DistinctWindowsAreDistinctEntries) {
  const SeriesPair pair = MakePair(400, 6, 0.6);
  auto inner = std::make_unique<BatchEvaluator>(pair, Params());
  CachingEvaluator cache(std::move(inner));
  cache.Score(Window(50, 200, 1));
  cache.Score(Window(50, 200, -1));  // delay differs
  cache.Score(Window(50, 201, 1));   // end differs
  cache.Score(Window(49, 200, 1));   // start differs
  EXPECT_EQ(cache.cache_hits(), 0);
  EXPECT_EQ(cache.evaluations(), 4);
}

TEST(CachingEvaluatorTest, EvictionKeepsAnswersCorrect) {
  const SeriesPair pair = MakePair(300, 7, 0.9);
  auto inner = std::make_unique<BatchEvaluator>(pair, Params());
  CachingEvaluator cache(std::move(inner), /*max_entries=*/4);
  const Window w(30, 120, 0);
  const double expected = cache.Score(w);
  // Overflow the cache several times.
  for (int64_t s = 0; s < 40; ++s) cache.Score(Window(s, s + 90, 0));
  EXPECT_DOUBLE_EQ(cache.Score(w), expected);
}

TEST(MakeEvaluatorTest, HonorsCachingFlag) {
  const SeriesPair pair = MakePair(300, 8, 0.5);
  TycosParams with = Params();
  with.cache_evaluations = true;
  TycosParams without = Params();
  without.cache_evaluations = false;
  auto cached = MakeEvaluator(pair, with, /*incremental=*/false);
  auto plain = MakeEvaluator(pair, without, /*incremental=*/true);
  const Window w(20, 150, 2);
  // Same score either way; both calls on the cached one cost one evaluation.
  EXPECT_NEAR(cached->Score(w), plain->Score(w), 1e-9);
  cached->Score(w);
  EXPECT_EQ(cached->evaluations(), 1);
}

}  // namespace
}  // namespace tycos
