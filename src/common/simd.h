// Portable SIMD kernels for the KSG hot loops — L∞ distance scans,
// marginal range counts, bound searches, and min/max reductions.
//
// The instruction set is selected at BUILD time (no runtime dispatch): the
// TYCOS_SIMD_LEVEL macro is 2 (AVX2), 1 (SSE4.2), or 0 (scalar), chosen by
// the TYCOS_SIMD CMake option (AUTO probes the compiler and /proc/cpuinfo).
// Every public kernel dispatches to the highest compiled-in level; the
// *Scalar twin is the audit reference — callers under TYCOS_AUDIT sample a
// "simd_vs_scalar" differential, and tests/simd_test.cc runs every level
// against the twin on hostile inputs.
//
// Exactness policy (see DESIGN.md "SIMD kernels"): element-wise kernels
// (distances, counts, bounds) are BIT-EXACT against the scalar twin — abs
// is a sign-bit mask (like std::fabs), max/min replicate the
// (a < b) ? b : a selection of std::max/std::min including NaN behavior,
// and comparisons use ordered predicates so NaN never counts. Min/max
// REDUCTIONS are value-exact but may return the opposite zero sign when
// both +0.0 and -0.0 appear (reduction order differs); no caller
// distinguishes zero signs. No kernel reassociates floating-point sums.
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

// Name of the compiled-in instruction set: "avx2", "sse4.2", or "scalar".
const char* InstructionSet();

// Doubles per vector register at the compiled-in level (4, 2, or 1).
size_t LaneCount();

// --- L∞ distance scans -----------------------------------------------------
//
// `xy` is an interleaved (x0, y0, x1, y1, ...) array of n points — the
// in-memory layout of std::vector<Point2> (asserted at the call sites).

// out[i] = max(|xy[2i] - px|, |xy[2i+1] - py|) for i in [0, n).
void ChebyshevToProbe(const double* xy, size_t n, double px, double py,
                      double* out);
void ChebyshevToProbeScalar(const double* xy, size_t n, double px, double py,
                            double* out);

// Gathered variant for candidate lists: out[i] is the distance of point
// idx[i] (an index into the xy array) from the probe.
void ChebyshevToProbeIdx(const double* xy, const int32_t* idx, size_t n,
                         double px, double py, double* out);
void ChebyshevToProbeIdxScalar(const double* xy, const int32_t* idx, size_t n,
                               double px, double py, double* out);

// --- Marginal range counts -------------------------------------------------

// #{ i in [0, n) : |base[2i] - center| <= d }. Reads every other double
// starting at `base`, so one marginal of an interleaved point array is
// counted by passing `xy` (x values) or `xy + 1` (y values). NaN samples
// never count (ordered comparison), matching the scalar fabs(...) <= d.
size_t CountWithinInterleaved(const double* base, size_t n, double center,
                              double d);
size_t CountWithinInterleavedScalar(const double* base, size_t n,
                                    double center, double d);

// --- Bound searches over sorted arrays -------------------------------------
//
// Bit-exact equivalents of std::lower_bound / std::upper_bound on a sorted
// double array: binary search narrows to a small block, a vector compare
// counts the remaining elements below the key. Used by the rank-index and
// batch-KSG marginal counts, where two bound searches run per query point.

size_t LowerBound(const double* v, size_t n, double key);
size_t LowerBoundScalar(const double* v, size_t n, double key);

size_t UpperBound(const double* v, size_t n, double key);
size_t UpperBoundScalar(const double* v, size_t n, double key);

// --- Min/max reductions ----------------------------------------------------

// Per-marginal extremes of an interleaved point array (n >= 1 points),
// with std::min/std::max accumulator semantics: a NaN sample never
// replaces the accumulator, but a NaN in point 0 poisons it — exactly the
// scalar fold. Zero-sign caveat above applies.
struct MinMaxXYResult {
  double min_x;
  double max_x;
  double min_y;
  double max_y;
};
MinMaxXYResult MinMaxXY(const double* xy, size_t n);
MinMaxXYResult MinMaxXYScalar(const double* xy, size_t n);

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

// --- Per-level entry points (tests only) -----------------------------------
//
// The public kernels above always dispatch to the highest compiled-in
// level. These let tests/simd_test.cc exercise every level the build
// supports (AVX2 builds also carry the SSE4.2 bodies) against the scalar
// twin; production code must not call them.
#if TYCOS_SIMD_LEVEL >= 1
namespace sse42 {
void ChebyshevToProbe(const double* xy, size_t n, double px, double py,
                      double* out);
void ChebyshevToProbeIdx(const double* xy, const int32_t* idx, size_t n,
                         double px, double py, double* out);
size_t CountWithinInterleaved(const double* base, size_t n, double center,
                              double d);
size_t LowerBound(const double* v, size_t n, double key);
size_t UpperBound(const double* v, size_t n, double key);
MinMaxXYResult MinMaxXY(const double* xy, size_t n);
MinMaxFiniteResult MinMaxFinite(const double* v, size_t n);
}  // namespace sse42
#endif
#if TYCOS_SIMD_LEVEL >= 2
namespace avx2 {
void ChebyshevToProbe(const double* xy, size_t n, double px, double py,
                      double* out);
void ChebyshevToProbeIdx(const double* xy, const int32_t* idx, size_t n,
                         double px, double py, double* out);
size_t CountWithinInterleaved(const double* base, size_t n, double center,
                              double d);
size_t LowerBound(const double* v, size_t n, double key);
size_t UpperBound(const double* v, size_t n, double key);
MinMaxXYResult MinMaxXY(const double* xy, size_t n);
MinMaxFiniteResult MinMaxFinite(const double* v, size_t n);
}  // namespace avx2
#endif

}  // namespace simd
}  // namespace tycos

#endif  // TYCOS_COMMON_SIMD_H_
