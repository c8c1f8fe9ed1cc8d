#include "search/tycos.h"

#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/window_similarity.h"
#include "datagen/relations.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;
using datagen::SyntheticDataset;

TycosParams TestParams() {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 24;
  p.s_max = 320;
  p.td_max = 32;
  p.delta = 4;
  p.k = 4;
  p.max_idle = 8;
  return p;
}

bool AnyWindowCovers(const WindowSet& set, const Window& truth,
                     double min_jaccard = 0.3) {
  for (const Window& w : set.windows()) {
    if (IndexJaccard(w, truth) >= min_jaccard) return true;
  }
  return false;
}

TEST(TycosParamsTest, ValidateAcceptsDefaults) {
  TycosParams p;
  EXPECT_TRUE(p.Validate(10000).ok());
}

TEST(TycosParamsTest, ValidateRejectsBadValues) {
  TycosParams p;
  p.sigma = 0.0;
  EXPECT_FALSE(p.Validate(1000).ok());
  p = TycosParams();
  p.s_min = 3;  // < k + 2
  EXPECT_FALSE(p.Validate(1000).ok());
  p = TycosParams();
  p.s_max = 2000;
  EXPECT_FALSE(p.Validate(1000).ok());
  p = TycosParams();
  p.epsilon_ratio = 1.0;
  EXPECT_FALSE(p.Validate(1000).ok());
  p = TycosParams();
  p.td_max = -1;
  EXPECT_FALSE(p.Validate(1000).ok());
  p = TycosParams();
  p.delta = 0;
  EXPECT_FALSE(p.Validate(1000).ok());
}

TEST(TycosParamsTest, EpsilonDerivedFromSigma) {
  TycosParams p;
  p.sigma = 0.4;
  p.epsilon_ratio = 0.25;
  EXPECT_DOUBLE_EQ(p.epsilon(), 0.1);
}

TEST(TycosVariantTest, Names) {
  EXPECT_STREQ(TycosVariantName(TycosVariant::kL), "TYCOS_L");
  EXPECT_STREQ(TycosVariantName(TycosVariant::kLN), "TYCOS_LN");
  EXPECT_STREQ(TycosVariantName(TycosVariant::kLM), "TYCOS_LM");
  EXPECT_STREQ(TycosVariantName(TycosVariant::kLMN), "TYCOS_LMN");
}

class TycosVariantRunTest : public ::testing::TestWithParam<TycosVariant> {};

TEST_P(TycosVariantRunTest, FindsAlignedPlantedRelation) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 150, 0}}, /*gap=*/200, /*seed=*/1);
  Tycos search(ds.pair, TestParams(), GetParam());
  const WindowSet result = search.Run();
  ASSERT_FALSE(result.empty()) << TycosVariantName(GetParam());
  EXPECT_TRUE(AnyWindowCovers(result, ds.planted[0].AsWindow()))
      << TycosVariantName(GetParam());
}

TEST_P(TycosVariantRunTest, FindsNonLinearRelation) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kCircle, 150, 0}}, /*gap=*/200, /*seed=*/2);
  Tycos search(ds.pair, TestParams(), GetParam());
  const WindowSet result = search.Run();
  EXPECT_TRUE(AnyWindowCovers(result, ds.planted[0].AsWindow()))
      << TycosVariantName(GetParam());
}

TEST_P(TycosVariantRunTest, PureNoiseYieldsNothing) {
  const SyntheticDataset ds =
      ComposeDataset({SegmentSpec{RelationType::kIndependent, 500, 0}},
                     /*gap=*/100, /*seed=*/3);
  Tycos search(ds.pair, TestParams(), GetParam());
  const WindowSet result = search.Run();
  EXPECT_TRUE(result.empty()) << TycosVariantName(GetParam());
}

TEST_P(TycosVariantRunTest, ResultWindowsRespectConstraints) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kSine, 200, 8},
       SegmentSpec{RelationType::kQuadratic, 150, 0}},
      /*gap=*/150, /*seed=*/4);
  const TycosParams p = TestParams();
  Tycos search(ds.pair, p, GetParam());
  const WindowSet result = search.Run();
  for (const Window& w : result.windows()) {
    EXPECT_TRUE(IsFeasible(w, ds.pair.size(), p.s_min, p.s_max, p.td_max))
        << w.ToString();
    EXPECT_GE(w.mi, p.sigma);
  }
  // Non-nesting invariant.
  const auto& ws = result.windows();
  for (size_t i = 0; i < ws.size(); ++i) {
    for (size_t j = 0; j < ws.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(Contains(ws[i], ws[j]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, TycosVariantRunTest,
                         ::testing::Values(TycosVariant::kL, TycosVariant::kLN,
                                           TycosVariant::kLM,
                                           TycosVariant::kLMN),
                         [](const auto& info) {
                           return std::string(TycosVariantName(info.param))
                                      .substr(6);  // strip "TYCOS_"
                         });

TEST(TycosTest, NoiseVariantFindsDelayedRelation) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kQuadratic, 200, 24}}, /*gap=*/200,
      /*seed=*/5);
  Tycos search(ds.pair, TestParams(), TycosVariant::kLMN);
  const WindowSet result = search.Run();
  ASSERT_FALSE(result.empty());
  bool found = false;
  for (const Window& w : result.windows()) {
    if (IndexJaccard(w, ds.planted[0].AsWindow()) >= 0.3 &&
        std::llabs(w.delay - 24) <= 8) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(TycosTest, DeterministicForFixedSeed) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 120, 4}}, /*gap=*/150, /*seed=*/6);
  Tycos a(ds.pair, TestParams(), TycosVariant::kLMN, /*seed=*/99);
  Tycos b(ds.pair, TestParams(), TycosVariant::kLMN, /*seed=*/99);
  const auto ra = a.Run().Sorted();
  const auto rb = b.Run().Sorted();
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) {
    EXPECT_TRUE(ra[i].SameSpan(rb[i]));
    EXPECT_DOUBLE_EQ(ra[i].mi, rb[i].mi);
  }
}

TEST(TycosTest, IncrementalAndBatchVariantsAgreeOnScores) {
  // kL and kLM explore identically (same RNG stream, same scores) because
  // the incremental estimator is exact; their outputs must match.
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kSine, 150, 0}}, /*gap=*/150, /*seed=*/7);
  Tycos l(ds.pair, TestParams(), TycosVariant::kL, 5);
  Tycos lm(ds.pair, TestParams(), TycosVariant::kLM, 5);
  const auto rl = l.Run().Sorted();
  const auto rlm = lm.Run().Sorted();
  ASSERT_EQ(rl.size(), rlm.size());
  for (size_t i = 0; i < rl.size(); ++i) {
    EXPECT_TRUE(rl[i].SameSpan(rlm[i]));
    EXPECT_NEAR(rl[i].mi, rlm[i].mi, 1e-9);
  }
}

TEST(TycosTest, HigherSigmaFindsFewerWindows) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 150, 0},
       SegmentSpec{RelationType::kSine, 150, 0},
       SegmentSpec{RelationType::kQuadratic, 150, 0}},
      /*gap=*/120, /*seed=*/8);
  TycosParams lo = TestParams();
  lo.sigma = 0.45;
  TycosParams hi = TestParams();
  hi.sigma = 0.85;
  const auto r_lo = Tycos(ds.pair, lo, TycosVariant::kLMN).Run();
  const auto r_hi = Tycos(ds.pair, hi, TycosVariant::kLMN).Run();
  EXPECT_GE(r_lo.size(), r_hi.size());
}

TEST(TycosTest, TopKModeReturnsAtMostKWindows) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 120, 0},
       SegmentSpec{RelationType::kSine, 120, 0},
       SegmentSpec{RelationType::kQuadratic, 120, 0}},
      /*gap=*/100, /*seed=*/9);
  TycosParams p = TestParams();
  p.top_k = 2;
  const WindowSet result = Tycos(ds.pair, p, TycosVariant::kLMN).Run();
  EXPECT_LE(result.size(), 2u);
  EXPECT_GE(result.size(), 1u);
}

TEST(TycosTest, StatsArePopulated) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 120, 0}}, /*gap=*/150, /*seed=*/10);
  Tycos search(ds.pair, TestParams(), TycosVariant::kLMN);
  const WindowSet result = search.Run();
  const TycosStats& st = search.stats();
  EXPECT_GT(st.climbs, 0);
  EXPECT_GT(st.mi_evaluations, 0);
  EXPECT_EQ(st.windows_found, static_cast<int64_t>(result.size()));
}

TEST(TycosTest, CachingReducesEstimatorCalls) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kSine, 150, 0}}, /*gap=*/150, /*seed=*/11);
  TycosParams with_cache = TestParams();
  with_cache.cache_evaluations = true;
  TycosParams no_cache = TestParams();
  no_cache.cache_evaluations = false;
  Tycos a(ds.pair, with_cache, TycosVariant::kL, 3);
  Tycos b(ds.pair, no_cache, TycosVariant::kL, 3);
  a.Run();
  b.Run();
  EXPECT_GT(a.stats().cache_hits, 0);
  EXPECT_LT(a.stats().mi_evaluations, b.stats().mi_evaluations);
}

TEST(TycosTest, MemoIsExactPastTwoToTheTwentyOneSamples) {
  // Restart climbs start across the whole pair, so the last few search
  // windows that start past 2^21 samples. The memo must key them exactly:
  // the cached run returns what the uncached run does.
  constexpr size_t kLength = 2'200'000;
  Rng rng(17);
  std::vector<double> xs(kLength), ys(kLength);
  for (size_t i = 0; i < kLength; ++i) {
    xs[i] = rng.Normal();
    ys[i] = xs[i] + 0.5 * rng.Normal();
  }
  const SeriesPair pair(TimeSeries(std::move(xs), "x"),
                        TimeSeries(std::move(ys), "y"));
  TycosParams p;
  p.s_min = 16;
  p.s_max = 64;
  p.td_max = 4;
  p.num_restarts = 100;
  TycosParams uncached = p;
  uncached.cache_evaluations = false;

  auto cached_engine = Tycos::Create(pair, p, TycosVariant::kL);
  auto uncached_engine = Tycos::Create(pair, uncached, TycosVariant::kL);
  ASSERT_TRUE(cached_engine.ok()) << cached_engine.status().ToString();
  ASSERT_TRUE(uncached_engine.ok()) << uncached_engine.status().ToString();
  const auto got = cached_engine.value()->Run().Sorted();
  const auto want = uncached_engine.value()->Run().Sorted();
  ASSERT_FALSE(want.empty());
  EXPECT_GT(want.back().start, int64_t{1} << 21);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].SameSpan(want[i])) << got[i].ToString();
    EXPECT_EQ(got[i].mi, want[i].mi) << got[i].ToString();
  }
  EXPECT_GT(cached_engine.value()->stats().cache_hits, 0);
  EXPECT_EQ(cached_engine.value()->stats().climbs,
            uncached_engine.value()->stats().climbs);
}

TEST(TycosTest, NoiseVariantPrunesDirections) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 150, 0}}, /*gap=*/250, /*seed=*/12);
  Tycos search(ds.pair, TestParams(), TycosVariant::kLN);
  search.Run();
  EXPECT_GT(search.stats().noise_blocked, 0);
}

// Forwards every call to the stack it wraps. The first Score() through
// any wrapper sharing `side` runs it on another thread and joins it, so a
// second engine runs, and publishes its work to the metrics registry, while
// the wrapped engine's run is live.
class SideRunEvaluator : public WindowEvaluator {
 public:
  SideRunEvaluator(std::unique_ptr<WindowEvaluator> inner,
                   std::function<void()>* side)
      : inner_(std::move(inner)), side_(side) {}

  double Score(const Window& w) override {
    if (*side_) {
      std::thread t(std::exchange(*side_, nullptr));
      t.join();
    }
    return inner_->Score(w);
  }
  int64_t evaluations() const override { return inner_->evaluations(); }
  int64_t degenerate_windows() const override {
    return inner_->degenerate_windows();
  }
  void FlushObsCounters() override { inner_->FlushObsCounters(); }

 private:
  std::unique_ptr<WindowEvaluator> inner_;
  std::function<void()>* side_;
};

TEST(TycosTest, StatsCountOnlyThisEngine) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 150, 4}}, /*gap=*/150, /*seed=*/3);
  for (int restarts : {0, 4}) {
    TycosParams p = TestParams();
    p.num_restarts = restarts;
    Tycos alone(ds.pair, p, TycosVariant::kLMN, /*seed=*/5);
    const WindowSet expected = alone.Run();

    // Engine `other` runs to completion inside `search`'s first Score().
    Tycos search(ds.pair, p, TycosVariant::kLMN, /*seed=*/5);
    Tycos other(ds.pair, p, TycosVariant::kLMN, /*seed=*/6);
    std::function<void()> side = [&other] { other.Run(); };
    search.WrapEvaluatorForTest([&side](std::unique_ptr<WindowEvaluator> inner)
                                    -> std::unique_ptr<WindowEvaluator> {
      return std::make_unique<SideRunEvaluator>(std::move(inner), &side);
    });
    const WindowSet got = search.Run();
    ASSERT_FALSE(side);  // `other` ran
    EXPECT_GT(other.stats().climbs, 0);

    const TycosStats& a = alone.stats();
    const TycosStats& b = search.stats();
    const std::string at = "num_restarts=" + std::to_string(restarts);
    EXPECT_EQ(got.size(), expected.size()) << at;
    EXPECT_EQ(b.climbs, a.climbs) << at;
    EXPECT_EQ(b.accepted_moves, a.accepted_moves) << at;
    EXPECT_EQ(b.rejected_moves, a.rejected_moves) << at;
    EXPECT_EQ(b.noise_blocked, a.noise_blocked) << at;
    EXPECT_EQ(b.mi_evaluations, a.mi_evaluations) << at;
    EXPECT_EQ(b.cache_hits, a.cache_hits) << at;
    EXPECT_EQ(b.windows_found, a.windows_found) << at;
    EXPECT_EQ(b.non_finite_scores, a.non_finite_scores) << at;
    EXPECT_EQ(b.degenerate_windows, a.degenerate_windows) << at;
  }
}

TEST(TycosTest, RunTwiceReplays) {
  // The engine keeps no run state: every unit builds its own evaluator
  // stack and RNG, so a second Run() repeats the first exactly.
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 120, 4},
       SegmentSpec{RelationType::kSine, 120, 8}},
      /*gap=*/120, /*seed=*/14);
  for (int restarts : {0, 3}) {
    TycosParams p = TestParams();
    p.num_restarts = restarts;
    Tycos search(ds.pair, p, TycosVariant::kLMN, /*seed=*/8);
    const auto first = search.Run().Sorted();
    const TycosStats a = search.stats();
    const auto second = search.Run().Sorted();
    const TycosStats& b = search.stats();
    const std::string at = "num_restarts=" + std::to_string(restarts);
    ASSERT_EQ(first.size(), second.size()) << at;
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_TRUE(first[i].SameSpan(second[i])) << at;
      EXPECT_EQ(first[i].mi, second[i].mi) << at;
    }
    EXPECT_EQ(b.climbs, a.climbs) << at;
    EXPECT_EQ(b.mi_evaluations, a.mi_evaluations) << at;
    EXPECT_EQ(b.cache_hits, a.cache_hits) << at;
  }
}

TEST(TycosTest, MultipleRelationsAllRecovered) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 150, 0},
       SegmentSpec{RelationType::kSine, 150, 10},
       SegmentSpec{RelationType::kQuadratic, 150, 20}},
      /*gap=*/150, /*seed=*/13);
  Tycos search(ds.pair, TestParams(), TycosVariant::kLMN);
  const WindowSet result = search.Run();
  int recovered = 0;
  for (const auto& planted : ds.planted) {
    if (AnyWindowCovers(result, planted.AsWindow())) ++recovered;
  }
  EXPECT_GE(recovered, 2);  // at least 2 of 3 (heuristic search)
}

}  // namespace
}  // namespace tycos
