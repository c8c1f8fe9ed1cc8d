// Portable SIMD kernels for the KSG hot loops — the per-point L∞ distance
// row, the all-points kNN extents (and neighbour lists) and marginal counts
// of a window, the one-strip count of an incremental recount, and the
// finite/min/max gate — and for the prefilter's sliding dot products.
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
// (distances) are BIT-EXACT against the scalar twin — abs is a sign-bit
// mask (like std::fabs), max/min replicate the (a < b) ? b : a selection
// of std::max/std::min including NaN behavior, and comparisons use ordered
// predicates so NaN never counts. The kNN extents and neighbour lists are
// bit-exact too, and the counts are integers, exact by construction. The
// sliding dot products keep each sum's order, so they are bit-exact on
// finite inputs. The min/max REDUCTION is value-exact but may return the
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

// One kNN candidate: its L∞ distance to the probe and its index. It lives
// here, below knn/, because KnnExtentsAll emits lists of them; knn/point.h
// orders them (KnnBefore) and selects them (KnnSelector).
struct KnnEntry {
  double d;
  size_t index;
};

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
// index, and the extents BruteKnnExtents reports. When `lists` is not
// null, lists[i * k, i * k + k) also receives that set as (distance, index)
// entries in the KnnBefore order, which is how the incremental estimator
// rebuilds its stored neighbour lists. The twin runs KnnSelector's
// insertion over (distance, |Δx|, |Δy|, index). The AVX2 body answers four
// queries per pass over the candidates and makes two passes: a sorted
// min/max network over distances alone finds each query's k-th distance r,
// then a rescan takes every candidate below r and, in index order, as many
// at r as fill k; with `lists` the rescan also inserts each taken candidate
// into its query's list (one body, compiled with and without that step, so
// a call without lists pays nothing for them). The first 16k candidates of
// the network pass all go through it, branch-free; only after them are the
// candidates some query admits rare enough for the branch that lets the
// others skip the network to predict well. Scratch is thread_local, k
// slots. Requires k >= 1, m >= k + 1 and finite samples: ClassifyInputs
// (mi/ksg.h) rules out NaN and ±inf before any kNN query, so the kernels
// are specified (and tested) on finite inputs only. A difference of finite
// samples may still overflow to +inf; that is a distance like any other.
void KnnExtentsAll(const double* x, const double* y, size_t m, size_t k,
                   double* dx, double* dy, KnnEntry* lists = nullptr);
void KnnExtentsAllScalar(const double* x, const double* y, size_t m, size_t k,
                         double* dx, double* dy, KnnEntry* lists = nullptr);

// --- All-points marginal counts -------------------------------------------
//
// nx[i] = #{ j != i : x[i] - dx[i] <= x[j] <= x[i] + dx[i] } and ny[i] the
// same over y and dy: the KSG marginal counts of a window, given its kNN
// extents. These are the closed-interval semantics every marginal count
// shares (CountInStrip recounts one point of the incremental estimator):
// each bound is computed once per query as x[i] - dx[i] and x[i] + dx[i], a
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

// --- One-strip count -------------------------------------------------------
//
// #{ i : c - e <= v[i] <= c + e }, with MarginalCountsAll's arithmetic:
// both bounds computed once, ordered compares (NaN never counts). A point's
// marginal count is this over its window's series span minus one (itself):
// the incremental estimator's recount after an edit changes its extents.
// One branch-free O(n) pass, four samples per AVX2 compare.
int64_t CountInStrip(const double* v, size_t n, double c, double e);
int64_t CountInStripScalar(const double* v, size_t n, double c, double e);

// --- Sliding dot products --------------------------------------------------
//
// out[i] = Σ_{j<m} q[j] · t[i + j] for i in [0, band): the dot products of
// a length-m query with the `band` length-m windows of t that start at
// t[0] .. t[band - 1] (t holds band + m - 1 samples). Each sum starts at
// +0.0 and runs in ascending j with a separate multiply and add (no FMA),
// so every dot is the plain scalar loop's value bit for bit. The AVX2 body
// spans band positions with its lanes, four per vector, and runs its
// vectors in groups of four, each vector a chain of its own, the last group
// taking the four to seven left (fewer in a band under 13); a band that is
// not a multiple of four ends with one vector that overlaps the one before
// (its lanes recompute equal values), and a band under four runs the twin.
// The prefilter's stage 2 scores every delay band through it.
void SlidingDots(const double* q, size_t m, const double* t, size_t band,
                 double* out);
void SlidingDotsScalar(const double* q, size_t m, const double* t,
                       size_t band, double* out);

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
