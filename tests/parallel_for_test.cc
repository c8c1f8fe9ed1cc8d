#include "common/parallel_for.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace tycos {
namespace {

TEST(ParallelForTest, ResolveThreadCountPassesExplicitValues) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(8), 8);
}

TEST(ParallelForTest, ResolveThreadCountAutoIsAtLeastOne) {
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-3), 1);
}

TEST(ParallelForTest, ResolveNestedThreadCountCapsTheProduct) {
  const unsigned raw = std::thread::hardware_concurrency();
  const int hw = raw > 0 ? static_cast<int>(raw) : 1;
  // The nested width never pushes outer × inner past the hardware width,
  // whatever the caller asked for (including auto = 0).
  for (int outer : {1, 2, hw, 2 * hw}) {
    for (int requested : {0, 1, 2, 64}) {
      const int inner = ResolveNestedThreadCount(requested, outer);
      EXPECT_GE(inner, 1) << "outer=" << outer << " req=" << requested;
      if (outer <= hw) {
        EXPECT_LE(outer * inner, std::max(outer, hw))
            << "outer=" << outer << " req=" << requested;
      } else {
        // Already oversubscribed at the outer level: inner collapses to 1.
        EXPECT_EQ(inner, 1) << "outer=" << outer << " req=" << requested;
      }
    }
  }
}

TEST(ParallelForTest, ResolveNestedThreadCountHonorsSmallRequests) {
  // An explicit request below the cap is taken as given — the cap only
  // ever shrinks the width.
  EXPECT_EQ(ResolveNestedThreadCount(1, 1), 1);
  const int plain = ResolveThreadCount(0);
  EXPECT_LE(ResolveNestedThreadCount(0, 1), plain);
}

TEST(ParallelForTest, ParallelForVisitsEachIndexExactlyOnce) {
  for (int executors : {1, 2, 4, 8}) {
    const int64_t n = 200;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    const ForStatus fs = ParallelFor(
        executors, n, RunContext::None(),
        [&](int64_t i) -> std::optional<StopReason> {
          hits[static_cast<size_t>(i)].fetch_add(1);
          return std::nullopt;
        });
    EXPECT_EQ(fs.claimed, n) << "executors=" << executors;
    EXPECT_FALSE(fs.stop.has_value());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "executors=" << executors << " i=" << i;
    }
  }
}

TEST(ParallelForTest, ParallelForZeroItemsIsANoop) {
  int calls = 0;
  const ForStatus fs = ParallelFor(
      3, 0, RunContext::None(), [&](int64_t) -> std::optional<StopReason> {
        ++calls;
        return std::nullopt;
      });
  EXPECT_EQ(fs.claimed, 0);
  EXPECT_EQ(calls, 0);
  EXPECT_FALSE(fs.stop.has_value());
}

TEST(ParallelForTest, ParallelForHonorsPreCancelledContext) {
  RunContext ctx;
  ctx.RequestCancel();
  int calls = 0;
  const ForStatus fs =
      ParallelFor(3, 100, ctx, [&](int64_t) -> std::optional<StopReason> {
        ++calls;
        return std::nullopt;
      });
  EXPECT_EQ(fs.claimed, 0);
  EXPECT_EQ(calls, 0);
  ASSERT_TRUE(fs.stop.has_value());
  EXPECT_EQ(*fs.stop, StopReason::kCancelled);
}

TEST(ParallelForTest, BodyReportedStopHaltsFurtherClaims) {
  // Sequential (1 executor): index 3 reports a stop, so exactly 4 indices
  // run.
  std::vector<int> ran;
  const ForStatus fs = ParallelFor(
      1, 100, RunContext::None(), [&](int64_t i) -> std::optional<StopReason> {
        ran.push_back(static_cast<int>(i));
        if (i == 3) return StopReason::kDeadlineExceeded;
        return std::nullopt;
      });
  EXPECT_EQ(fs.claimed, 4);
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_TRUE(fs.stop.has_value());
  EXPECT_EQ(*fs.stop, StopReason::kDeadlineExceeded);
}

TEST(ParallelForTest, ClaimedIndicesFormAPrefixUnderConcurrentStop) {
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t n = 500;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    const ForStatus fs = ParallelFor(
        5, n, RunContext::None(), [&](int64_t i) -> std::optional<StopReason> {
          hits[static_cast<size_t>(i)].fetch_add(1);
          if (i == 37) return StopReason::kCancelled;
          return std::nullopt;
        });
    // Every index below `claimed` ran exactly once; none at or above it ran.
    ASSERT_GE(fs.claimed, 38);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), i < fs.claimed ? 1 : 0)
          << "trial=" << trial << " i=" << i;
    }
  }
}

TEST(ParallelForTest, MidLoopCancellationStopsClaims) {
  RunContext ctx;
  std::atomic<int64_t> started{0};
  const ForStatus fs =
      ParallelFor(3, 100000, ctx, [&](int64_t) -> std::optional<StopReason> {
        if (started.fetch_add(1) == 10) ctx.RequestCancel();
        return std::nullopt;
      });
  EXPECT_LT(fs.claimed, 100000);
  EXPECT_EQ(started.load(), fs.claimed);
  ASSERT_TRUE(fs.stop.has_value());
  EXPECT_EQ(*fs.stop, StopReason::kCancelled);
}

TEST(ParallelForTest, BodyMayRunItsOwnParallelFor) {
  // Each call owns its helpers, so an inner loop started from an outer
  // body's executor neither waits on nor shares the outer loop's threads.
  const int64_t n = 8;
  std::vector<std::atomic<int>> hits(n * n);
  for (auto& h : hits) h.store(0);
  const ForStatus outer = ParallelFor(
      4, n, RunContext::None(), [&](int64_t i) -> std::optional<StopReason> {
        const ForStatus inner = ParallelFor(
            4, n, RunContext::None(),
            [&](int64_t j) -> std::optional<StopReason> {
              hits[static_cast<size_t>(i * n + j)].fetch_add(1);
              return std::nullopt;
            });
        EXPECT_EQ(inner.claimed, n) << "i=" << i;
        return std::nullopt;
      });
  EXPECT_EQ(outer.claimed, n);
  EXPECT_FALSE(outer.stop.has_value());
  for (int64_t k = 0; k < n * n; ++k) {
    EXPECT_EQ(hits[static_cast<size_t>(k)].load(), 1)
        << "i=" << k / n << " j=" << k % n;
  }
}

}  // namespace
}  // namespace tycos
