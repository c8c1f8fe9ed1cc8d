#include "common/math.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tycos {
namespace {

TEST(DigammaTest, KnownValueAtOne) {
  // ψ(1) = -γ.
  EXPECT_NEAR(Digamma(1.0), -kEulerGamma, 1e-12);
}

TEST(DigammaTest, KnownValueAtTwo) {
  // ψ(2) = 1 - γ.
  EXPECT_NEAR(Digamma(2.0), 1.0 - kEulerGamma, 1e-12);
}

TEST(DigammaTest, KnownValueAtHalf) {
  // ψ(1/2) = -γ - 2 ln 2.
  EXPECT_NEAR(Digamma(0.5), -kEulerGamma - 2.0 * std::log(2.0), 1e-11);
}

TEST(DigammaTest, KnownValueAtTen) {
  // ψ(10) = H_9 - γ.
  double h9 = 0.0;
  for (int i = 1; i <= 9; ++i) h9 += 1.0 / i;
  EXPECT_NEAR(Digamma(10.0), h9 - kEulerGamma, 1e-12);
}

TEST(DigammaTest, MonotonicallyIncreasing) {
  double prev = Digamma(0.25);
  for (double x = 0.5; x < 50.0; x += 0.25) {
    const double cur = Digamma(x);
    EXPECT_GT(cur, prev) << "at x=" << x;
    prev = cur;
  }
}

TEST(DigammaTest, ApproachesLogForLargeArguments) {
  // ψ(x) ~ ln x - 1/(2x); at x = 1e6 they agree to ~1e-7.
  EXPECT_NEAR(Digamma(1e6), std::log(1e6) - 0.5e-6, 1e-10);
}

class DigammaRecurrenceTest : public ::testing::TestWithParam<double> {};

TEST_P(DigammaRecurrenceTest, SatisfiesRecurrence) {
  // ψ(x+1) = ψ(x) + 1/x.
  const double x = GetParam();
  EXPECT_NEAR(Digamma(x + 1.0), Digamma(x) + 1.0 / x, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DigammaRecurrenceTest,
                         ::testing::Values(0.1, 0.5, 1.0, 1.7, 2.0, 3.14, 5.0,
                                           9.9, 25.0, 100.0, 1234.5));

TEST(DigammaTableTest, MatchesDirectEvaluation) {
  DigammaTable table;
  for (size_t n = 1; n <= 2000; ++n) {
    ASSERT_NEAR(table(n), Digamma(static_cast<double>(n)), 1e-9)
        << "at n=" << n;
  }
}

TEST(DigammaTableTest, RandomAccessAfterGrowth) {
  DigammaTable table(4);
  EXPECT_NEAR(table(1000), Digamma(1000.0), 1e-9);
  EXPECT_NEAR(table(1), -kEulerGamma, 1e-12);
  EXPECT_NEAR(table(500), Digamma(500.0), 1e-9);
}

TEST(LogFactorialTest, SmallValues) {
  EXPECT_NEAR(LogFactorial(0), 0.0, 1e-12);
  EXPECT_NEAR(LogFactorial(1), 0.0, 1e-12);
  EXPECT_NEAR(LogFactorial(5), std::log(120.0), 1e-10);
  EXPECT_NEAR(LogFactorial(10), std::log(3628800.0), 1e-8);
}

TEST(MeanTest, Basics) {
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
  EXPECT_DOUBLE_EQ(Mean({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({-1.0, 1.0}), 0.0);
}

TEST(MeanTest, KahanStability) {
  // 1e8 copies of 0.1 would drift with naive summation; sample a smaller
  // but still adversarial mix of magnitudes.
  std::vector<double> v;
  for (int i = 0; i < 10000; ++i) {
    v.push_back(1e8);
    v.push_back(0.1);
    v.push_back(-1e8);
  }
  // Kahan keeps the error within ~2ε·Σ|x| of the exact sum; for these
  // magnitudes that is ~1e-8 on the mean (naive summation loses ~1e-5).
  EXPECT_NEAR(Mean(v), 0.1 / 3.0, 1e-7);
}

TEST(VarianceTest, Basics) {
  EXPECT_DOUBLE_EQ(Variance({}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({3.0}), 0.0);
  EXPECT_DOUBLE_EQ(Variance({1.0, 1.0, 1.0}), 0.0);
  // Population variance of {1,2,3,4} is 1.25.
  EXPECT_DOUBLE_EQ(Variance({1.0, 2.0, 3.0, 4.0}), 1.25);
}

TEST(NearlyEqualTest, Behaviour) {
  EXPECT_TRUE(NearlyEqual(1.0, 1.0));
  EXPECT_TRUE(NearlyEqual(1.0, 1.0 + 5e-10));
  EXPECT_FALSE(NearlyEqual(1.0, 1.001));
  EXPECT_TRUE(NearlyEqual(1.0, 1.5, 0.5));
}

// Multi-restart determinism rests on each unit's seed depending only on
// (seed, unit) and never colliding with a sibling unit's: a collision would
// make two climbs sample identical LAHC histories.
TEST(RngTest, DeriveStreamSeedIsDistinctAndReproducible) {
  for (const uint64_t seed :
       {uint64_t{0}, uint64_t{42}, std::numeric_limits<uint64_t>::max()}) {
    std::vector<uint64_t> derived;
    for (uint64_t stream = 0; stream < 4096; ++stream) {
      derived.push_back(DeriveStreamSeed(seed, stream));
      ASSERT_EQ(DeriveStreamSeed(seed, stream), derived.back())
          << "seed " << seed << " stream " << stream;
    }
    std::sort(derived.begin(), derived.end());
    EXPECT_EQ(std::adjacent_find(derived.begin(), derived.end()),
              derived.end())
        << "collision among the streams of seed " << seed;
  }
}

}  // namespace
}  // namespace tycos
