#include "stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace tycos {
namespace perfbench {
namespace {

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(BenchStatsTest, MedianOddEvenAndEmpty) {
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
}

// Reference values from Python: statistics.quantiles(v, n=4).
TEST(BenchStatsTest, QuartilesMatchPythonStatistics) {
  const Quartiles q = QuartilesOf(Range(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // The exclusive method extrapolates past the ends of tiny samples.
  const Quartiles two = QuartilesOf({2, 1});
  EXPECT_DOUBLE_EQ(two.q1, 0.75);
  EXPECT_DOUBLE_EQ(two.median, 1.5);
  EXPECT_DOUBLE_EQ(two.q3, 2.25);
  // Python refuses a single point; tycos_bench reports it as all three.
  const Quartiles one = QuartilesOf({7});
  EXPECT_EQ(one.q1, 7.0);
  EXPECT_EQ(one.q3, 7.0);
}

TEST(BenchStatsTest, TailNeedsTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990 and leaves exactly 10 beyond; p99.9
  // would leave 1.
  TailValue t = Tail(Range(1000));
  EXPECT_EQ(t.percentile, 99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10);
  EXPECT_EQ(t.samples, 1000);
  // 999 samples: p99 leaves 9, so the rule steps down to p95.
  t = Tail(Range(999));
  EXPECT_EQ(t.percentile, 95);
  EXPECT_GE(t.beyond, kTailBeyond);
  // 100 000 samples reach p99.99.
  EXPECT_EQ(Tail(Range(100000)).percentile, 99.99);
}

TEST(BenchStatsTest, TailCapIsAGuardedP99) {
  TailValue t = Tail(Range(100000), 99);
  EXPECT_EQ(t.percentile, 99);
  EXPECT_EQ(t.value, 99000);
  t = Tail(Range(200), 99);
  EXPECT_EQ(t.percentile, 95);
  EXPECT_EQ(t.value, 190);
  EXPECT_EQ(t.beyond, 10);
}

TEST(BenchStatsTest, SmallSamplesFallBackToTheMedianRung) {
  EXPECT_EQ(Tail({}).samples, 0);
  TailValue t = Tail({5});
  EXPECT_EQ(t.percentile, 50);
  EXPECT_EQ(t.value, 5);
  EXPECT_EQ(t.beyond, 0);
  // n < 10: nothing can have 10 beyond.
  t = Tail(Range(9));
  EXPECT_EQ(t.percentile, 50);
  EXPECT_EQ(t.value, 5);
  EXPECT_EQ(t.beyond, 4);
  // 20 samples: the median leaves exactly 10.
  t = Tail(Range(20));
  EXPECT_EQ(t.percentile, 50);
  EXPECT_EQ(t.beyond, 10);
  // 40 samples: p75 leaves 10.
  EXPECT_EQ(Tail(Range(40)).percentile, 75);
}

TEST(BenchStatsTest, TiesAtTheValueAreNotBeyond) {
  // 990 ones and 10 twos: p99 is a 1 with 10 beyond.
  std::vector<double> v(990, 1.0);
  v.insert(v.end(), 10, 2.0);
  TailValue t = Tail(v);
  EXPECT_EQ(t.percentile, 99);
  EXPECT_EQ(t.value, 1.0);
  EXPECT_EQ(t.beyond, 10);
  // All ties: no rung has anything beyond it.
  t = Tail(std::vector<double>(500, 3.0));
  EXPECT_EQ(t.percentile, 50);
  EXPECT_EQ(t.value, 3.0);
  EXPECT_EQ(t.beyond, 0);
  // Ties straddling p99: 985 ones and 15 twos. p99 lands on a 2 (0 beyond),
  // p95 on a 1 with 15 beyond.
  std::vector<double> w(985, 1.0);
  w.insert(w.end(), 15, 2.0);
  t = Tail(w);
  EXPECT_EQ(t.percentile, 95);
  EXPECT_EQ(t.value, 1.0);
  EXPECT_EQ(t.beyond, 15);
}

}  // namespace
}  // namespace perfbench
}  // namespace tycos
