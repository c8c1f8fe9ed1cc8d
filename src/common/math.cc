#include "common/math.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace tycos {

double Digamma(double x) {
  TYCOS_CHECK_GT(x, 0.0);
  double result = 0.0;
  // Recurrence: ψ(x) = ψ(x+1) − 1/x.
  while (x < 12.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  // Asymptotic expansion in 1/x²; truncation error < 1e-13 for x >= 12.
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv -
            inv2 * (1.0 / 12.0 -
                    inv2 * (1.0 / 120.0 -
                            inv2 * (1.0 / 252.0 - inv2 / 240.0)));
  return result;
}

DigammaTable::DigammaTable(size_t initial_capacity) {
  table_.reserve(initial_capacity);
  table_.push_back(-kEulerGamma);  // ψ(1)
}

double DigammaTable::operator()(size_t n) {
  TYCOS_CHECK_GE(n, 1u);
  while (table_.size() < n) {
    // ψ(n+1) = ψ(n) + 1/n.
    table_.push_back(table_.back() + 1.0 / static_cast<double>(table_.size()));
  }
  return table_[n - 1];
}

double DigammaTable::SumPairs(const int64_t* nx, const int64_t* ny,
                              size_t m) {
  const auto slot = [](int64_t n) {
    return static_cast<size_t>(n < 1 ? 0 : n - 1);  // table_[i] = ψ(i+1)
  };
  size_t needed = 1;
  for (size_t i = 0; i < m; ++i) {
    needed = std::max(needed, slot(nx[i]) + 1);
    needed = std::max(needed, slot(ny[i]) + 1);
  }
  (*this)(needed);  // one growth pass, same recurrence as the scalar path
  double sum = 0.0;
  for (size_t i = 0; i < m; ++i) {
    // Same grouping as `sum += psi(nx) + psi(ny)`: bit-identical result.
    sum += table_[slot(nx[i])] + table_[slot(ny[i])];
  }
  return sum;
}

double LogFactorial(unsigned n) {
  return std::lgamma(static_cast<double>(n) + 1.0);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0, c = 0.0;
  for (double x : v) {
    double y = x - c;
    double t = sum + y;
    c = (t - sum) - y;
    sum = t;
  }
  return sum / static_cast<double>(v.size());
}

double Variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double mu = Mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - mu) * (x - mu);
  return acc / static_cast<double>(v.size());
}

}  // namespace tycos
