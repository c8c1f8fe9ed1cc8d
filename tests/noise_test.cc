#include "search/noise.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/relations.h"
#include "mi/ksg.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;
using datagen::SyntheticDataset;

TycosParams SmallParams() {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 24;
  p.s_max = 400;
  p.td_max = 24;
  p.k = 4;
  return p;
}

TEST(NoiseTheoremTest, MixingIndependentDataReducesMi) {
  // Theorem 6.1, statistically: I(X;Y) >= I(Z;W) where Z, W extend (X, Y)
  // with independent noise. Check on a strong relation.
  Rng rng(3);
  std::vector<double> xs, ys;
  datagen::SampleRelation(RelationType::kSine, 300, rng, &xs, &ys);
  const double pure = KsgMi(xs, ys);
  // Append 300 independent samples to both.
  std::vector<double> xz = xs, yw = ys;
  for (int i = 0; i < 300; ++i) {
    xz.push_back(rng.Normal());
    yw.push_back(rng.Normal());
  }
  const double mixed = KsgMi(xz, yw);
  // Theorem 6.1's direction: diluting with independent data strictly loses
  // shared information (the θη < 1 factor). The exact factor depends on the
  // mixture structure, so only the ordering and a coarse band are asserted.
  EXPECT_GT(pure, mixed + 0.2);
  EXPECT_LT(mixed, 0.75 * pure);
  EXPECT_GT(mixed, 0.0);
}

TEST(InitialNoisePruningTest, FindsThePlantedRegion) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 200, 0}}, /*gap=*/300, /*seed=*/1);
  TycosParams p = SmallParams();
  p.td_max = 0;  // probe blocks at τ = 0 only
  BatchEvaluator eval(ds.pair, p);
  const auto w0 = InitialNoisePruning(ds.pair, eval, p, 0);
  ASSERT_TRUE(w0.has_value());
  EXPECT_GE(w0->mi, p.epsilon());
  // The starting window must overlap the planted relation [300, 499].
  const Window truth = ds.planted[0].AsWindow();
  EXPECT_TRUE(Overlaps(*w0, truth)) << w0->ToString();
}

TEST(InitialNoisePruningTest, ReturnsNulloptOnPureNoise) {
  Rng rng(5);
  std::vector<double> x(600), y(600);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Normal();
    y[i] = rng.Normal();
  }
  const SeriesPair pair{TimeSeries(std::move(x)), TimeSeries(std::move(y))};
  TycosParams p = SmallParams();
  p.td_max = 0;  // probe blocks at τ = 0 only
  BatchEvaluator eval(pair, p);
  // The noise threshold ε is deliberately permissive (σ/4), so a lucky
  // noise block may clear it — but nothing in pure noise may ever look like
  // a real correlation (score >= σ).
  const auto w0 = InitialNoisePruning(pair, eval, p, 0);
  if (w0.has_value()) {
    EXPECT_LT(w0->mi, p.sigma);
  }
}

TEST(InitialNoisePruningTest, DelayScanLocatesDelayedRelation) {
  const SyntheticDataset ds =
      ComposeDataset({SegmentSpec{RelationType::kQuadratic, 240, 20}},
                     /*gap=*/200, /*seed=*/2);
  TycosParams p = SmallParams();
  // A strict ε and a fine delay grid make the scan skip chance noise blocks
  // and land on the relation at (near) its true lag.
  p.epsilon_ratio = 0.5;
  p.initial_delay_step = 4;
  BatchEvaluator eval(ds.pair, p);
  const auto w0 = InitialNoisePruning(ds.pair, eval, p, 0);
  ASSERT_TRUE(w0.has_value());
  EXPECT_TRUE(Overlaps(*w0, ds.planted[0].AsWindow()));
  // The chosen placement should be at (or near) the planted delay.
  EXPECT_NEAR(static_cast<double>(w0->delay), 20.0, 8.0);
}

TEST(InitialNoisePruningTest, RespectsFromCursor) {
  // Two relations; starting the scan after the first must find the second.
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 150, 0},
       SegmentSpec{RelationType::kSine, 150, 0}},
      /*gap=*/200, /*seed=*/3);
  TycosParams p = SmallParams();
  p.td_max = 0;  // probe blocks at τ = 0 only
  BatchEvaluator eval(ds.pair, p);
  const int64_t second_start = ds.planted[1].x_start;
  const auto w0 = InitialNoisePruning(ds.pair, eval, p, second_start - 40);
  ASSERT_TRUE(w0.has_value());
  EXPECT_TRUE(Overlaps(*w0, ds.planted[1].AsWindow()));
}

TEST(DetectSubsequentNoiseTest, BlocksExtensionIntoNoise) {
  // Relation [300, 499]; a window sitting exactly on it should see noise on
  // both sides.
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 200, 0}}, /*gap=*/300, /*seed=*/4);
  const TycosParams p = SmallParams();
  BatchEvaluator eval(ds.pair, p);
  const Window truth = ds.planted[0].AsWindow();
  Window w = truth;
  w.mi = eval.Score(w);
  ASSERT_GT(w.mi, p.epsilon());
  DirectionMask mask;
  const int blocked =
      DetectSubsequentNoise(ds.pair, eval, p, w, w.mi, &mask);
  EXPECT_EQ(blocked, 2);
  EXPECT_TRUE(mask.extend_end_blocked);
  EXPECT_TRUE(mask.extend_start_blocked);
}

TEST(DetectSubsequentNoiseTest, DoesNotBlockInsideTheRelation) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 400, 0}}, /*gap=*/200, /*seed=*/5);
  const TycosParams p = SmallParams();
  BatchEvaluator eval(ds.pair, p);
  // A window covering the middle half of the relation: both extensions lead
  // into more correlated data, so nothing should be blocked.
  const datagen::PlantedRelation& r = ds.planted[0];
  Window w(r.x_start + 100, r.x_start + 299, 0);
  w.mi = eval.Score(w);
  DirectionMask mask;
  const int blocked =
      DetectSubsequentNoise(ds.pair, eval, p, w, w.mi, &mask);
  EXPECT_EQ(blocked, 0);
  EXPECT_FALSE(mask.extend_end_blocked);
  EXPECT_FALSE(mask.extend_start_blocked);
}

TEST(DetectSubsequentNoiseTest, HonoursExistingMask) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 200, 0}}, /*gap=*/300, /*seed=*/6);
  const TycosParams p = SmallParams();
  BatchEvaluator eval(ds.pair, p);
  Window w = ds.planted[0].AsWindow();
  w.mi = eval.Score(w);
  DirectionMask mask;
  mask.extend_end_blocked = true;
  const int blocked =
      DetectSubsequentNoise(ds.pair, eval, p, w, w.mi, &mask);
  EXPECT_LE(blocked, 1);  // only the start side can newly block
  EXPECT_TRUE(mask.extend_end_blocked);
}

TEST(DirectionMaskTest, Reset) {
  DirectionMask m;
  m.extend_end_blocked = true;
  m.extend_start_blocked = true;
  m.Reset();
  EXPECT_FALSE(m.extend_end_blocked);
  EXPECT_FALSE(m.extend_start_blocked);
}

}  // namespace
}  // namespace tycos
