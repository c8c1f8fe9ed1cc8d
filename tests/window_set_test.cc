#include "core/window_set.h"

#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace tycos {
namespace {

TEST(WindowSetTest, InsertDisjointWindows) {
  WindowSet set;
  EXPECT_TRUE(set.Insert(Window(0, 10, 0, 0.5)));
  EXPECT_TRUE(set.Insert(Window(20, 30, 0, 0.6)));
  EXPECT_EQ(set.size(), 2u);
}

TEST(WindowSetTest, RejectsExactDuplicate) {
  WindowSet set;
  EXPECT_TRUE(set.Insert(Window(0, 10, 0, 0.5)));
  EXPECT_FALSE(set.Insert(Window(0, 10, 0, 0.9)));
  EXPECT_EQ(set.size(), 1u);
}

TEST(WindowSetTest, NestedLowerMiIsRejected) {
  WindowSet set;
  EXPECT_TRUE(set.Insert(Window(0, 20, 0, 0.8)));
  EXPECT_FALSE(set.Insert(Window(5, 15, 0, 0.5)));  // nested, weaker
  EXPECT_EQ(set.size(), 1u);
}

TEST(WindowSetTest, NestedHigherMiEvictsIncumbent) {
  WindowSet set;
  EXPECT_TRUE(set.Insert(Window(0, 20, 0, 0.4)));
  EXPECT_TRUE(set.Insert(Window(5, 15, 0, 0.9)));  // nested, stronger
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.windows()[0].start, 5);
}

TEST(WindowSetTest, DifferentDelaysAreNotNested) {
  WindowSet set;
  EXPECT_TRUE(set.Insert(Window(0, 20, 0, 0.8)));
  EXPECT_TRUE(set.Insert(Window(5, 15, 3, 0.2)));  // same span but τ differs
  EXPECT_EQ(set.size(), 2u);
}

TEST(WindowSetTest, OverlappingButNotNestedCoexist) {
  WindowSet set;
  EXPECT_TRUE(set.Insert(Window(0, 15, 0, 0.5)));
  EXPECT_TRUE(set.Insert(Window(10, 25, 0, 0.5)));
  EXPECT_EQ(set.size(), 2u);
}

TEST(WindowSetTest, InsertEvictsMultipleNestedIncumbents) {
  WindowSet set;
  EXPECT_TRUE(set.Insert(Window(2, 6, 0, 0.3)));
  EXPECT_TRUE(set.Insert(Window(10, 14, 0, 0.3)));
  // A big strong window containing both incumbents evicts them.
  EXPECT_TRUE(set.Insert(Window(0, 20, 0, 0.9)));
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.windows()[0].end, 20);
}

TEST(WindowSetTest, NonNestingInvariantHolds) {
  WindowSet set;
  set.Insert(Window(0, 30, 0, 0.4));
  set.Insert(Window(5, 10, 0, 0.7));
  set.Insert(Window(12, 20, 0, 0.2));
  set.Insert(Window(3, 25, 0, 0.5));
  const auto& ws = set.windows();
  for (size_t i = 0; i < ws.size(); ++i) {
    for (size_t j = 0; j < ws.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(Contains(ws[i], ws[j]))
          << ws[i].ToString() << " contains " << ws[j].ToString();
    }
  }
}

TEST(WindowSetTest, SortedOrdersByStart) {
  WindowSet set;
  set.Insert(Window(20, 30, 0, 0.5));
  set.Insert(Window(0, 12, 1, 0.5));
  set.Insert(Window(0, 10, 3, 0.5));
  set.Insert(Window(0, 10, 0, 0.5));
  set.Insert(Window(40, 50, 0, 0.5));
  set.Insert(Window(0, 10, -2, 0.5));
  // Windows tied on start, or on start and end, do not nest when their
  // delays differ. Ties break on end, then on delay, so the order never
  // depends on insertion order.
  const std::vector<std::tuple<int64_t, int64_t, int64_t>> want = {
      {0, 10, -2}, {0, 10, 0}, {0, 10, 3}, {0, 12, 1}, {20, 30, 0},
      {40, 50, 0}};
  std::vector<std::tuple<int64_t, int64_t, int64_t>> got;
  for (const Window& w : set.Sorted()) {
    got.emplace_back(w.start, w.end, w.delay);
  }
  EXPECT_EQ(got, want);
}

TEST(WindowSetTest, DelayRange) {
  WindowSet set;
  EXPECT_EQ(set.MinDelay(), 0);
  EXPECT_EQ(set.MaxDelay(), 0);
  set.Insert(Window(0, 10, -3, 0.5));
  set.Insert(Window(20, 30, 7, 0.5));
  EXPECT_EQ(set.MinDelay(), -3);
  EXPECT_EQ(set.MaxDelay(), 7);
}

TEST(MergeOverlappingTest, MergesTouchingSameDelay) {
  std::vector<Window> ws = {Window(0, 10, 0, 0.5), Window(8, 20, 0, 0.7),
                            Window(21, 25, 0, 0.2)};
  const auto merged = MergeOverlapping(ws);
  // [0,10] ∪ [8,20] merges; [21,25] is adjacent (start == end+1) so the
  // merge rule (start <= end+1) folds it in as well.
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].start, 0);
  EXPECT_EQ(merged[0].end, 25);
  EXPECT_DOUBLE_EQ(merged[0].mi, 0.7);  // max of constituents
}

TEST(MergeOverlappingTest, KeepsDelaysApart) {
  std::vector<Window> ws = {Window(0, 10, 0, 0.5), Window(5, 15, 2, 0.5)};
  const auto merged = MergeOverlapping(ws);
  EXPECT_EQ(merged.size(), 2u);
}

TEST(MergeOverlappingTest, DisjointStayDisjoint) {
  std::vector<Window> ws = {Window(0, 10, 0, 0.5), Window(12, 20, 0, 0.5)};
  const auto merged = MergeOverlapping(ws);
  EXPECT_EQ(merged.size(), 2u);
}

TEST(MergeOverlappingTest, EmptyInput) {
  EXPECT_TRUE(MergeOverlapping({}).empty());
}

// --- Non-nesting invariant edge cases ------------------------------------

TEST(WindowSetTest, DuplicateInsertLeavesSingleCopy) {
  WindowSet set;
  EXPECT_TRUE(set.Insert(Window(3, 9, 1, 0.4)));
  // Re-inserting the identical span is rejected regardless of its MI —
  // including a strictly better score (SameSpan short-circuits before the
  // MI comparison) and a bit-identical duplicate.
  EXPECT_FALSE(set.Insert(Window(3, 9, 1, 0.4)));
  EXPECT_FALSE(set.Insert(Window(3, 9, 1, 0.99)));
  ASSERT_EQ(set.size(), 1u);
  EXPECT_DOUBLE_EQ(set.windows()[0].mi, 0.4);
}

TEST(WindowSetTest, ExactNestingAtSharedBoundaries) {
  // Contains() uses closed comparisons, so an inner window sharing the
  // outer's start (or end) is still nested — the non-nesting constraint
  // must fire on boundary-touching spans, not only strict interiors.
  WindowSet set;
  EXPECT_TRUE(set.Insert(Window(10, 30, 2, 0.8)));
  EXPECT_FALSE(set.Insert(Window(10, 20, 2, 0.5)));  // shares start
  EXPECT_FALSE(set.Insert(Window(25, 30, 2, 0.5)));  // shares end
  EXPECT_EQ(set.size(), 1u);

  // A boundary-sharing inner window with a higher MI evicts the outer.
  EXPECT_TRUE(set.Insert(Window(10, 20, 2, 0.9)));
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.windows()[0].end, 20);
}

TEST(WindowSetTest, SameSpanDifferentDelayCoexist) {
  // Nesting requires equal delays; the same X-interval under two delays is
  // two distinct relations and both stay in the set.
  WindowSet set;
  EXPECT_TRUE(set.Insert(Window(0, 10, 0, 0.5)));
  EXPECT_TRUE(set.Insert(Window(0, 10, 4, 0.5)));
  EXPECT_EQ(set.size(), 2u);
}

TEST(WindowSetTest, EvictionCascadeKeepsSetNonNested) {
  // One wide insert must evict several nested incumbents at once and leave
  // a set where no pair nests.
  WindowSet set;
  EXPECT_TRUE(set.Insert(Window(0, 5, 0, 0.3)));
  EXPECT_TRUE(set.Insert(Window(10, 15, 0, 0.4)));
  EXPECT_TRUE(set.Insert(Window(20, 25, 0, 0.2)));
  EXPECT_TRUE(set.Insert(Window(0, 30, 0, 0.9)));
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.windows()[0].size(), 31);
}

TEST(MergeOverlappingTest, ExactlyTouchingWindowsMerge) {
  // start == end + 1 is the adjacency boundary: touching windows fold into
  // one covering window; a one-sample gap keeps them apart.
  const auto touching =
      MergeOverlapping({Window(0, 9, 3, 0.2), Window(10, 19, 3, 0.6)});
  ASSERT_EQ(touching.size(), 1u);
  EXPECT_EQ(touching[0].start, 0);
  EXPECT_EQ(touching[0].end, 19);
  EXPECT_DOUBLE_EQ(touching[0].mi, 0.6);

  const auto gapped =
      MergeOverlapping({Window(0, 9, 3, 0.2), Window(11, 19, 3, 0.6)});
  EXPECT_EQ(gapped.size(), 2u);
}

TEST(MergeOverlappingTest, IdenticalWindowsCollapse) {
  const auto merged =
      MergeOverlapping({Window(4, 8, 1, 0.3), Window(4, 8, 1, 0.7)});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_DOUBLE_EQ(merged[0].mi, 0.7);
}

}  // namespace
}  // namespace tycos
