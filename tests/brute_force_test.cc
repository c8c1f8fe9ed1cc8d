#include "search/brute_force_search.h"

#include <gtest/gtest.h>

#include "datagen/relations.h"
#include "obs/metrics.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;
using datagen::SyntheticDataset;

TycosParams TinyParams() {
  TycosParams p;
  p.sigma = 0.55;
  p.s_min = 16;
  p.s_max = 64;
  p.td_max = 4;
  p.k = 4;
  return p;
}

TEST(BruteForceTest, FeasibleWindowCountMatchesEnumeration) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 60, 0}}, /*gap=*/40, /*seed=*/1);
  const TycosParams p = TinyParams();
  BruteForceSearch bf(ds.pair, p);
  // Enumerate naively.
  const int64_t n = ds.pair.size();
  int64_t count = 0;
  for (int64_t tau = -p.td_max; tau <= p.td_max; ++tau) {
    for (int64_t s = 0; s < n; ++s) {
      for (int64_t e = s; e < n; ++e) {
        if (IsFeasible(Window(s, e, tau), n, p.s_min, p.s_max, p.td_max)) {
          ++count;
        }
      }
    }
  }
  EXPECT_EQ(bf.CountFeasibleWindows(), count);
  const BruteForceResult r = bf.Run();
  EXPECT_EQ(r.windows_evaluated, count);
}

TEST(BruteForceTest, FindsPlantedRelation) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 80, 0}}, /*gap=*/60, /*seed=*/2);
  const BruteForceResult r = BruteForceSearch(ds.pair, TinyParams()).Run();
  ASSERT_FALSE(r.merged.empty());
  bool covered = false;
  for (const Window& w : r.merged) {
    covered |= Overlaps(w, ds.planted[0].AsWindow());
  }
  EXPECT_TRUE(covered);
}

TEST(BruteForceTest, FindsDelayedRelationAtCorrectDelay) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 80, 3}}, /*gap=*/60, /*seed=*/3);
  const BruteForceResult r = BruteForceSearch(ds.pair, TinyParams()).Run();
  bool found_at_delay = false;
  for (const Window& w : r.merged) {
    if (w.delay == 3 && Overlaps(w, ds.planted[0].AsWindow())) {
      found_at_delay = true;
    }
  }
  EXPECT_TRUE(found_at_delay);
}

TEST(BruteForceTest, PureNoiseFindsLittle) {
  const SyntheticDataset ds =
      ComposeDataset({SegmentSpec{RelationType::kIndependent, 150, 0}},
                     /*gap=*/30, /*seed=*/4);
  const BruteForceResult r = BruteForceSearch(ds.pair, TinyParams()).Run();
  // Independent data: at most stray borderline windows.
  EXPECT_LE(static_cast<int64_t>(r.raw.size()), r.windows_evaluated / 100);
}

TEST(BruteForceTest, IncrementalAndBatchModesAgree) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kSine, 60, 2}}, /*gap=*/40, /*seed=*/5);
  TycosParams p = TinyParams();
  p.td_max = 2;
  p.s_max = 48;
  const BruteForceResult inc =
      BruteForceSearch(ds.pair, p, /*use_incremental_mi=*/true).Run();
  const BruteForceResult batch =
      BruteForceSearch(ds.pair, p, /*use_incremental_mi=*/false).Run();
  ASSERT_EQ(inc.raw.size(), batch.raw.size());
  for (size_t i = 0; i < inc.raw.size(); ++i) {
    EXPECT_TRUE(inc.raw[i].SameSpan(batch.raw[i]));
    EXPECT_EQ(inc.raw[i].mi, batch.raw[i].mi);
  }
}

// The exact reference publishes its evaluator's work the way a TYCOS unit
// does, so mi.evaluations counts every window it scored in either mode
// (and the incremental core's incremental.* family is published too).
TEST(BruteForceTest, PublishesItsEvaluationsToTheRegistry) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 80, 0}}, /*gap=*/60, /*seed=*/7);
  TycosParams p = TinyParams();
  p.s_max = 32;
  p.td_max = 2;
  for (const bool incremental : {false, true}) {
    obs::Registry::Instance().ResetAllForTest();
    const BruteForceResult r = BruteForceSearch(ds.pair, p, incremental).Run();
    ASSERT_GT(r.windows_evaluated, 0);
    const obs::MetricsSnapshot snap = obs::Snapshot();
    EXPECT_EQ(snap.CounterValue("mi.evaluations"), r.windows_evaluated)
        << "incremental " << incremental;
    if (incremental) {
      EXPECT_GT(snap.CounterValue("incremental.incremental_moves"), 0);
    }
  }
}

TEST(BruteForceTest, MergedIsMergedAndRawIsNot) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 80, 0}}, /*gap=*/60, /*seed=*/6);
  const BruteForceResult r = BruteForceSearch(ds.pair, TinyParams()).Run();
  EXPECT_GE(r.raw.size(), r.merged.size());
  // Merged windows with equal delay must not overlap.
  for (size_t i = 0; i < r.merged.size(); ++i) {
    for (size_t j = i + 1; j < r.merged.size(); ++j) {
      if (r.merged[i].delay == r.merged[j].delay) {
        EXPECT_FALSE(Overlaps(r.merged[i], r.merged[j]));
      }
    }
  }
}

}  // namespace
}  // namespace tycos
