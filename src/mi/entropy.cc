#include "mi/entropy.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace tycos {

namespace {

// Equal-width bin id in [0, bins) for v over [lo, hi].
int64_t BinOf(double v, double lo, double width, int64_t bins) {
  if (width <= 0.0) return 0;
  int64_t b = static_cast<int64_t>((v - lo) / width);
  return std::clamp<int64_t>(b, 0, bins - 1);
}

}  // namespace

double HistogramJointEntropy(std::span<const double> xs,
                             std::span<const double> ys) {
  TYCOS_CHECK_EQ(xs.size(), ys.size());
  const int64_t m = static_cast<int64_t>(xs.size());
  if (m < 2) return 0.0;
  const int64_t bins = static_cast<int64_t>(
      std::ceil(std::sqrt(static_cast<double>(m))));
  const auto [xlo_it, xhi_it] = std::minmax_element(xs.begin(), xs.end());
  const auto [ylo_it, yhi_it] = std::minmax_element(ys.begin(), ys.end());
  const double xlo = *xlo_it, ylo = *ylo_it;
  const double xw = (*xhi_it - xlo) / static_cast<double>(bins);
  const double yw = (*yhi_it - ylo) / static_cast<double>(bins);
  std::vector<int64_t> counts(static_cast<size_t>(bins * bins), 0);
  for (size_t i = 0; i < xs.size(); ++i) {
    const int64_t bx = BinOf(xs[i], xlo, xw, bins);
    const int64_t by = BinOf(ys[i], ylo, yw, bins);
    ++counts[static_cast<size_t>(bx * bins + by)];
  }
  double h = 0.0;
  for (int64_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(m);
    h -= p * std::log(p);
  }
  return h;
}

}  // namespace tycos
