// Portable SIMD kernels for the KSG hot loops — the per-point L∞ distance
// row, the all-points kNN extents and marginal counts of a batch window, the
// rank-index bound searches, and the finite/min/max gate.
//
// The instruction set is selected at BUILD time (no runtime dispatch): the
// TYCOS_SIMD_LEVEL macro is 2 (AVX2) or 0 (scalar), chosen by the
// TYCOS_SIMD CMake option (AUTO probes the compiler and /proc/cpuinfo).
// Each kernel is its AVX2 body in an AVX2 build and a call to its *Scalar
// twin otherwise. The twin is the test reference: tests/simd_test.cc runs
// every kernel against its twin on hostile inputs, and the simd-off build
// runs the whole suite on the twins.
//
// Exactness policy (see DESIGN.md "SIMD kernels"): element-wise kernels
// (distances, bounds) are BIT-EXACT against the scalar twin — abs is a
// sign-bit mask (like std::fabs), max/min replicate the (a < b) ? b : a
// selection of std::max/std::min including NaN behavior, and comparisons
// use ordered predicates so NaN never counts. The kNN extents are
// bit-exact too, and the marginal counts are integers, exact by
// construction. The min/max REDUCTION is value-exact but may return the
// opposite zero sign when both +0.0 and -0.0 appear (reduction order
// differs); no caller distinguishes zero signs. No kernel reassociates
// floating-point sums.
//
// All intrinsics live in src/common/simd.cc — tools/lint.py --simd-hygiene
// rejects them anywhere else, so the baseline-ISA guarantee of the rest of
// the tree is auditable.

#ifndef TYCOS_COMMON_SIMD_H_
#define TYCOS_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace tycos {
namespace simd {

// Name of the compiled-in instruction set: "avx2" or "scalar".
const char* InstructionSet();

// --- L∞ distance row -------------------------------------------------------
//
// `xy` is an interleaved (x0, y0, x1, y1, ...) array of n points — the
// in-memory layout of std::vector<Point2> (asserted at the call sites).

// out[i] = max(|xy[2i] - px|, |xy[2i+1] - py|) for i in [0, n).
void ChebyshevToProbe(const double* xy, size_t n, double px, double py,
                      double* out);
void ChebyshevToProbeScalar(const double* xy, size_t n, double px, double py,
                            double* out);

// --- All-points kNN extents ----------------------------------------------
//
// dx[i] / dy[i] = the per-dimension extents (largest |x_j - x_i| and
// |y_j - y_i|) of the k nearest neighbours of point i, under L∞ and self
// excluded, among the m points (x[j], y[j]): the set KnnSelector keeps when
// offered every j != i in index order, so a distance tie keeps the earlier
// index, and the extents BruteKnnExtents reports. No index is stored. The
// twin runs KnnSelector's insertion with |Δx| and |Δy| in place of the
// index. The AVX2 body answers four queries per pass over the candidates
// and makes two passes: a sorted min/max network over distances alone
// finds each query's k-th distance r, then a rescan takes every candidate
// below r and, in index order, as many at r as fill k. Scratch is
// thread_local, k slots. Requires k >= 1, m >= k + 1 and finite samples:
// KsgMi's ClassifyInputs rules out NaN and ±inf before any kNN query, so
// the kernels are specified (and tested) on finite inputs only. A
// difference of finite samples may still overflow to +inf; that is a
// distance like any other.
void KnnExtentsAll(const double* x, const double* y, size_t m, size_t k,
                   double* dx, double* dy);
void KnnExtentsAllScalar(const double* x, const double* y, size_t m, size_t k,
                         double* dx, double* dy);

// --- All-points marginal counts -------------------------------------------
//
// nx[i] = #{ j != i : x[i] - dx[i] <= x[j] <= x[i] + dx[i] } and ny[i] the
// same over y and dy: the KSG marginal counts of a batch window, given its
// kNN extents. These are the closed-interval semantics every marginal count
// shares (RankIndex::CountInRange serves the incremental estimator): each
// bound is computed once per query as x[i] - dx[i] and x[i] + dx[i], a
// sample counts when it lies at or inside both (ordered compares, so NaN
// never counts), and the query itself, which always lies inside its own
// interval, is subtracted. One branch-free O(m²) pass; the AVX2 body
// counts four queries per lane group, one broadcast candidate at a time.
// Requires finite samples and extents >= 0 (+inf allowed), which every
// kNN backend yields.
void MarginalCountsAll(const double* x, const double* y, size_t m,
                       const double* dx, const double* dy, int64_t* nx,
                       int64_t* ny);
void MarginalCountsAllScalar(const double* x, const double* y, size_t m,
                             const double* dx, const double* dy, int64_t* nx,
                             int64_t* ny);

// --- Bound searches over sorted arrays -------------------------------------
//
// Bit-exact equivalents of std::lower_bound / std::upper_bound on a sorted
// double array: binary search narrows to a small block, a vector compare
// counts the remaining elements below the key. RankIndex's range counts run
// two per query.

size_t LowerBound(const double* v, size_t n, double key);
size_t LowerBoundScalar(const double* v, size_t n, double key);

size_t UpperBound(const double* v, size_t n, double key);
size_t UpperBoundScalar(const double* v, size_t n, double key);

// --- Min/max reduction -----------------------------------------------------

// Extremes of a contiguous array (n >= 1) plus an all-finite flag
// (|v[i]| <= DBL_MAX for every i; false on any NaN or ±inf). min/max are
// meaningful only when all_finite is true. One pass — this is the
// ClassifyInputs gate of the batch estimator.
struct MinMaxFiniteResult {
  double min;
  double max;
  bool all_finite;
};
MinMaxFiniteResult MinMaxFinite(const double* v, size_t n);
MinMaxFiniteResult MinMaxFiniteScalar(const double* v, size_t n);

}  // namespace simd
}  // namespace tycos

#endif  // TYCOS_COMMON_SIMD_H_
