#include "mi/entropy.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace tycos {
namespace {

TEST(HistogramJointEntropyTest, NonNegativeAndBounded) {
  Rng rng(6);
  std::vector<double> xs(500), ys(500);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.Normal();
    ys[i] = rng.Normal();
  }
  const double h = HistogramJointEntropy(xs, ys);
  EXPECT_GE(h, 0.0);
  // At most ln(bins²) with bins = ceil(sqrt(500)) = 23.
  EXPECT_LE(h, 2.0 * std::log(23.0) + 1e-9);
}

TEST(HistogramJointEntropyTest, DependentLowerThanIndependent) {
  Rng rng(7);
  std::vector<double> xs(2000), y_dep(2000), y_ind(2000);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.Uniform(0, 1);
    y_dep[i] = xs[i];
    y_ind[i] = rng.Uniform(0, 1);
  }
  EXPECT_LT(HistogramJointEntropy(xs, y_dep),
            HistogramJointEntropy(xs, y_ind));
}

TEST(HistogramJointEntropyTest, TinySampleReturnsZero) {
  const std::vector<double> xs = {1.0};
  const std::vector<double> ys = {2.0};
  EXPECT_DOUBLE_EQ(HistogramJointEntropy(xs, ys), 0.0);
}

}  // namespace
}  // namespace tycos
