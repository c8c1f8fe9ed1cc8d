// Special functions and small numeric helpers used by the MI estimators.

#ifndef TYCOS_COMMON_MATH_H_
#define TYCOS_COMMON_MATH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tycos {

// Euler–Mascheroni constant (ψ(1) = -kEulerGamma).
inline constexpr double kEulerGamma = 0.57721566490153286060651209008240243;

// Digamma function ψ(x) for x > 0.
//
// Uses the recurrence ψ(x) = ψ(x+1) − 1/x to push the argument above 6 and
// then the asymptotic expansion
//   ψ(x) ≈ ln x − 1/(2x) − 1/(12x²) + 1/(120x⁴) − 1/(252x⁶).
// Absolute error is below 1e-12 for all x ≥ 1, which is far tighter than the
// statistical error of the KSG estimator itself.
double Digamma(double x);

// Cached ψ(1), ψ(2), ..., ψ(n) lookups for the integer arguments the KSG
// estimator hammers on. Grows on demand; not thread-safe by design (the
// search is single-threaded; estimators own private tables).
class DigammaTable {
 public:
  explicit DigammaTable(size_t initial_capacity = 1024);

  // ψ(n) for integer n ≥ 1.
  double operator()(size_t n);

  // Batched Σᵢ (ψ(max(nx[i], 1)) + ψ(max(ny[i], 1))) over m pairs of
  // integer arguments. The clamp is the KSG one: a marginal count can only
  // reach 0 through floating-point rounding at the strip edge, and it reads
  // ψ(1). The table is grown ONCE to the largest argument, then the
  // accumulation is a pure in-order table walk — bit-identical to the
  // per-call loop `sum += (*this)(nx[i]) + (*this)(ny[i])` (same addition
  // order and grouping; no reassociation), but without the per-element
  // grow-check. Both KSG estimators read their MI through it, which is what
  // makes the incremental one bit-identical to the batch one.
  double SumPairs(const int64_t* nx, const int64_t* ny, size_t m);

 private:
  std::vector<double> table_;  // table_[i] = ψ(i+1)
};

// Natural log of n! via lgamma; used by histogram estimators.
double LogFactorial(unsigned n);

// Numerically stable mean of a vector (Kahan summation). Returns 0 for empty
// input.
double Mean(const std::vector<double>& v);

// Population variance (divides by n). Returns 0 for fewer than 2 elements.
double Variance(const std::vector<double>& v);

// True when |a - b| <= tol (absolute tolerance).
inline bool NearlyEqual(double a, double b, double tol = 1e-9) {
  double d = a - b;
  return (d < 0 ? -d : d) <= tol;
}

}  // namespace tycos

#endif  // TYCOS_COMMON_MATH_H_
