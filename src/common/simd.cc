// The ONLY translation unit allowed to contain raw vector intrinsics
// (enforced by tools/lint.py --simd-hygiene). Built with the instruction-set
// flags matching TYCOS_SIMD_LEVEL (src/CMakeLists.txt sets them per-source,
// so the rest of the tree keeps baseline codegen); the scalar twins compile
// in every build and are the bit-exactness reference.

#include "common/simd.h"

#include <algorithm>
#include <cfloat>
#include <cmath>

#if TYCOS_SIMD_LEVEL >= 1
#include <immintrin.h>
#endif

namespace tycos {
namespace simd {

namespace {

// Binary search narrows a bound search to a block this size, then a vector
// compare counts the remainder. Covers one or two cache lines of doubles.
constexpr size_t kBoundBlock = 32;

}  // namespace

// --- Scalar twins (always compiled; the audit/test reference) --------------

void ChebyshevToProbeScalar(const double* xy, size_t n, double px, double py,
                            double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = std::max(std::fabs(xy[2 * i] - px), std::fabs(xy[2 * i + 1] - py));
  }
}

void ChebyshevToProbeIdxScalar(const double* xy, const int32_t* idx, size_t n,
                               double px, double py, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const size_t p = static_cast<size_t>(idx[i]);
    out[i] =
        std::max(std::fabs(xy[2 * p] - px), std::fabs(xy[2 * p + 1] - py));
  }
}

size_t CountWithinInterleavedScalar(const double* base, size_t n,
                                    double center, double d) {
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(base[2 * i] - center) <= d) ++count;
  }
  return count;
}

size_t LowerBoundScalar(const double* v, size_t n, double key) {
  return static_cast<size_t>(std::lower_bound(v, v + n, key) - v);
}

size_t UpperBoundScalar(const double* v, size_t n, double key) {
  return static_cast<size_t>(std::upper_bound(v, v + n, key) - v);
}

MinMaxXYResult MinMaxXYScalar(const double* xy, size_t n) {
  MinMaxXYResult r{xy[0], xy[0], xy[1], xy[1]};
  for (size_t i = 1; i < n; ++i) {
    r.min_x = std::min(r.min_x, xy[2 * i]);
    r.max_x = std::max(r.max_x, xy[2 * i]);
    r.min_y = std::min(r.min_y, xy[2 * i + 1]);
    r.max_y = std::max(r.max_y, xy[2 * i + 1]);
  }
  return r;
}

MinMaxFiniteResult MinMaxFiniteScalar(const double* v, size_t n) {
  MinMaxFiniteResult r{v[0], v[0], true};
  for (size_t i = 0; i < n; ++i) {
    // |v| <= DBL_MAX is exactly std::isfinite for doubles (false on NaN).
    r.all_finite = r.all_finite && std::fabs(v[i]) <= DBL_MAX;
    r.min = std::min(r.min, v[i]);
    r.max = std::max(r.max, v[i]);
  }
  return r;
}

#if TYCOS_SIMD_LEVEL >= 1

// --- SSE4.2 kernels (__m128d, 2 doubles per op) ----------------------------

namespace sse42 {

namespace {

inline __m128d Abs128(__m128d v) {
  return _mm_andnot_pd(_mm_set1_pd(-0.0), v);  // clear sign bit, like fabs
}

// std::max(a, b) selection semantics: (a < b) ? b : a, NaN included.
// maxpd returns its SECOND operand on an unordered compare or a tie, so
// swapping the operands reproduces the std::max selection rule in one
// instruction (maxpd(b, a) = b > a ? b : a, NaN/tie -> a).
inline __m128d MaxStd128(__m128d a, __m128d b) { return _mm_max_pd(b, a); }

// std::min(a, b) selection semantics: (b < a) ? b : a. Same operand swap.
inline __m128d MinStd128(__m128d a, __m128d b) { return _mm_min_pd(b, a); }

}  // namespace

void ChebyshevToProbe(const double* xy, size_t n, double px, double py,
                      double* out) {
  const __m128d pxv = _mm_set1_pd(px);
  const __m128d pyv = _mm_set1_pd(py);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d a = _mm_loadu_pd(xy + 2 * i);      // x0 y0
    const __m128d b = _mm_loadu_pd(xy + 2 * i + 2);  // x1 y1
    const __m128d xs = _mm_unpacklo_pd(a, b);        // x0 x1
    const __m128d ys = _mm_unpackhi_pd(a, b);        // y0 y1
    const __m128d dx = Abs128(_mm_sub_pd(xs, pxv));
    const __m128d dy = Abs128(_mm_sub_pd(ys, pyv));
    _mm_storeu_pd(out + i, MaxStd128(dx, dy));
  }
  if (i < n) ChebyshevToProbeScalar(xy + 2 * i, n - i, px, py, out + i);
}

void ChebyshevToProbeIdx(const double* xy, const int32_t* idx, size_t n,
                         double px, double py, double* out) {
  const __m128d pxv = _mm_set1_pd(px);
  const __m128d pyv = _mm_set1_pd(py);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const size_t p0 = static_cast<size_t>(idx[i]);
    const size_t p1 = static_cast<size_t>(idx[i + 1]);
    const __m128d xs = _mm_setr_pd(xy[2 * p0], xy[2 * p1]);
    const __m128d ys = _mm_setr_pd(xy[2 * p0 + 1], xy[2 * p1 + 1]);
    const __m128d dx = Abs128(_mm_sub_pd(xs, pxv));
    const __m128d dy = Abs128(_mm_sub_pd(ys, pyv));
    _mm_storeu_pd(out + i, MaxStd128(dx, dy));
  }
  if (i < n) ChebyshevToProbeIdxScalar(xy, idx + i, n - i, px, py, out + i);
}

size_t CountWithinInterleaved(const double* base, size_t n, double center,
                              double d) {
  const __m128d c = _mm_set1_pd(center);
  const __m128d dd = _mm_set1_pd(d);
  size_t count = 0;
  size_t i = 0;
  // i + 2 < n (strict): the second load reads base[2i+2 .. 2i+3], one
  // double past point i+1 when `base` starts at an odd offset (y values).
  for (; i + 2 < n; i += 2) {
    const __m128d a = _mm_loadu_pd(base + 2 * i);
    const __m128d b = _mm_loadu_pd(base + 2 * i + 2);
    const __m128d vals = _mm_unpacklo_pd(a, b);  // base[2i], base[2i+2]
    const __m128d dist = Abs128(_mm_sub_pd(vals, c));
    const int mask = _mm_movemask_pd(_mm_cmple_pd(dist, dd));
    count += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(mask)));
  }
  for (; i < n; ++i) {
    if (std::fabs(base[2 * i] - center) <= d) ++count;
  }
  return count;
}

size_t LowerBound(const double* v, size_t n, double key) {
  size_t lo = 0, hi = n;
  while (hi - lo > kBoundBlock) {
    const size_t mid = lo + (hi - lo) / 2;
    if (v[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const __m128d k2 = _mm_set1_pd(key);
  size_t i = lo;
  size_t below = 0;
  for (; i + 2 <= hi; i += 2) {
    const int mask = _mm_movemask_pd(_mm_cmplt_pd(_mm_loadu_pd(v + i), k2));
    below += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(mask)));
  }
  for (; i < hi; ++i) {
    if (v[i] < key) ++below;
  }
  return lo + below;
}

size_t UpperBound(const double* v, size_t n, double key) {
  size_t lo = 0, hi = n;
  while (hi - lo > kBoundBlock) {
    const size_t mid = lo + (hi - lo) / 2;
    if (!(key < v[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const __m128d k2 = _mm_set1_pd(key);
  size_t i = lo;
  size_t at_or_below = 0;
  for (; i + 2 <= hi; i += 2) {
    const int mask = _mm_movemask_pd(_mm_cmple_pd(_mm_loadu_pd(v + i), k2));
    at_or_below += static_cast<size_t>(__builtin_popcount(
        static_cast<unsigned>(mask)));
  }
  for (; i < hi; ++i) {
    if (!(key < v[i])) ++at_or_below;
  }
  return lo + at_or_below;
}

MinMaxXYResult MinMaxXY(const double* xy, size_t n) {
  __m128d mn = _mm_loadu_pd(xy);  // x0 y0; NaN here sticks, as in the
  __m128d mx = mn;                // scalar std::min/std::max fold
  for (size_t i = 1; i < n; ++i) {
    const __m128d a = _mm_loadu_pd(xy + 2 * i);
    mn = MinStd128(mn, a);
    mx = MaxStd128(mx, a);
  }
  MinMaxXYResult r;
  r.min_x = _mm_cvtsd_f64(mn);
  r.min_y = _mm_cvtsd_f64(_mm_unpackhi_pd(mn, mn));
  r.max_x = _mm_cvtsd_f64(mx);
  r.max_y = _mm_cvtsd_f64(_mm_unpackhi_pd(mx, mx));
  return r;
}

MinMaxFiniteResult MinMaxFinite(const double* v, size_t n) {
  const __m128d finite_max = _mm_set1_pd(DBL_MAX);
  __m128d mn = _mm_set1_pd(v[0]);
  __m128d mx = mn;
  __m128d ok = _mm_castsi128_pd(_mm_set1_epi64x(-1));
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d a = _mm_loadu_pd(v + i);
    ok = _mm_and_pd(ok, _mm_cmple_pd(Abs128(a), finite_max));
    mn = MinStd128(mn, a);
    mx = MaxStd128(mx, a);
  }
  MinMaxFiniteResult r;
  r.all_finite = _mm_movemask_pd(ok) == 0x3;
  r.min = std::min(_mm_cvtsd_f64(mn), _mm_cvtsd_f64(_mm_unpackhi_pd(mn, mn)));
  r.max = std::max(_mm_cvtsd_f64(mx), _mm_cvtsd_f64(_mm_unpackhi_pd(mx, mx)));
  for (; i < n; ++i) {
    r.all_finite = r.all_finite && std::fabs(v[i]) <= DBL_MAX;
    r.min = std::min(r.min, v[i]);
    r.max = std::max(r.max, v[i]);
  }
  return r;
}

}  // namespace sse42

#endif  // TYCOS_SIMD_LEVEL >= 1

#if TYCOS_SIMD_LEVEL >= 2

// --- AVX2 kernels (__m256d, 4 doubles per op) ------------------------------

namespace avx2 {

namespace {

inline __m256d Abs256(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

// Operand-swapped native min/max: vmaxpd/vminpd return their SECOND
// operand on an unordered compare or a tie, which is exactly the std::max
// / std::min selection rule when the arguments are reversed (see the
// SSE4.2 twins above).
inline __m256d MaxStd256(__m256d a, __m256d b) {
  return _mm256_max_pd(b, a);
}

inline __m256d MinStd256(__m256d a, __m256d b) {
  return _mm256_min_pd(b, a);
}

inline size_t Popcount4(int mask) {
  return static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(mask)));
}

}  // namespace

void ChebyshevToProbe(const double* xy, size_t n, double px, double py,
                      double* out) {
  const __m256d probe = _mm256_setr_pd(px, py, px, py);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(xy + 2 * i);      // x0 y0 x1 y1
    const __m256d b = _mm256_loadu_pd(xy + 2 * i + 4);  // x2 y2 x3 y3
    const __m256d da = Abs256(_mm256_sub_pd(a, probe));
    const __m256d db = Abs256(_mm256_sub_pd(b, probe));
    // Swap x/y within each point and take the std::max blend; the even
    // slots then hold max(|dx|, |dy|) with the scalar operand order.
    const __m256d ma = MaxStd256(da, _mm256_permute_pd(da, 0x5));
    const __m256d mb = MaxStd256(db, _mm256_permute_pd(db, 0x5));
    const __m256d packed = _mm256_unpacklo_pd(ma, mb);  // d0 d2 d1 d3
    _mm256_storeu_pd(out + i, _mm256_permute4x64_pd(packed, 0xD8));
  }
  if (i < n) ChebyshevToProbeScalar(xy + 2 * i, n - i, px, py, out + i);
}

void ChebyshevToProbeIdx(const double* xy, const int32_t* idx, size_t n,
                         double px, double py, double* out) {
  const __m256d pxv = _mm256_set1_pd(px);
  const __m256d pyv = _mm256_set1_pd(py);
  // The maskable gather with an explicit zero source: the plain
  // _mm256_i32gather_pd goes through _mm256_undefined_pd in GCC's header,
  // which trips -Wmaybe-uninitialized under -Werror (lint preset).
  const __m256d zero = _mm256_setzero_pd();
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i id =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + i));
    const __m128i ix = _mm_slli_epi32(id, 1);  // byte offset = 16 * idx
    const __m128i iy = _mm_add_epi32(ix, _mm_set1_epi32(1));
    const __m256d xs = _mm256_mask_i32gather_pd(zero, xy, ix, all, 8);
    const __m256d ys = _mm256_mask_i32gather_pd(zero, xy, iy, all, 8);
    const __m256d dx = Abs256(_mm256_sub_pd(xs, pxv));
    const __m256d dy = Abs256(_mm256_sub_pd(ys, pyv));
    _mm256_storeu_pd(out + i, MaxStd256(dx, dy));
  }
  if (i < n) ChebyshevToProbeIdxScalar(xy, idx + i, n - i, px, py, out + i);
}

size_t CountWithinInterleaved(const double* base, size_t n, double center,
                              double d) {
  const __m256d c = _mm256_set1_pd(center);
  const __m256d dd = _mm256_set1_pd(d);
  size_t count = 0;
  size_t i = 0;
  // i + 4 < n (strict): the second load reads one double past point i + 3
  // when `base` starts at an odd offset (y values).
  for (; i + 4 < n; i += 4) {
    const __m256d a = _mm256_loadu_pd(base + 2 * i);
    const __m256d b = _mm256_loadu_pd(base + 2 * i + 4);
    const __m256d da = Abs256(_mm256_sub_pd(a, c));
    const __m256d db = Abs256(_mm256_sub_pd(b, c));
    const int ma = _mm256_movemask_pd(_mm256_cmp_pd(da, dd, _CMP_LE_OQ));
    const int mb = _mm256_movemask_pd(_mm256_cmp_pd(db, dd, _CMP_LE_OQ));
    count += Popcount4(ma & 0x5) + Popcount4(mb & 0x5);  // even slots only
  }
  for (; i < n; ++i) {
    if (std::fabs(base[2 * i] - center) <= d) ++count;
  }
  return count;
}

size_t LowerBound(const double* v, size_t n, double key) {
  size_t lo = 0, hi = n;
  while (hi - lo > kBoundBlock) {
    const size_t mid = lo + (hi - lo) / 2;
    if (v[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const __m256d k4 = _mm256_set1_pd(key);
  size_t i = lo;
  size_t below = 0;
  for (; i + 4 <= hi; i += 4) {
    const __m256d a = _mm256_loadu_pd(v + i);
    below += Popcount4(_mm256_movemask_pd(_mm256_cmp_pd(a, k4, _CMP_LT_OQ)));
  }
  for (; i < hi; ++i) {
    if (v[i] < key) ++below;
  }
  return lo + below;
}

size_t UpperBound(const double* v, size_t n, double key) {
  size_t lo = 0, hi = n;
  while (hi - lo > kBoundBlock) {
    const size_t mid = lo + (hi - lo) / 2;
    if (!(key < v[mid])) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const __m256d k4 = _mm256_set1_pd(key);
  size_t i = lo;
  size_t at_or_below = 0;
  for (; i + 4 <= hi; i += 4) {
    const __m256d a = _mm256_loadu_pd(v + i);
    at_or_below +=
        Popcount4(_mm256_movemask_pd(_mm256_cmp_pd(a, k4, _CMP_LE_OQ)));
  }
  for (; i < hi; ++i) {
    if (!(key < v[i])) ++at_or_below;
  }
  return lo + at_or_below;
}

MinMaxXYResult MinMaxXY(const double* xy, size_t n) {
  // Both 128-bit lanes start at point 0 (idempotent for min/max), so a NaN
  // in point 0 poisons the accumulator exactly like the scalar fold.
  __m256d mn = _mm256_setr_pd(xy[0], xy[1], xy[0], xy[1]);
  __m256d mx = mn;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m256d a = _mm256_loadu_pd(xy + 2 * i);  // x_i y_i x_i+1 y_i+1
    mn = MinStd256(mn, a);
    mx = MaxStd256(mx, a);
  }
  const __m128d mn_lo = _mm256_castpd256_pd128(mn);
  const __m128d mn_hi = _mm256_extractf128_pd(mn, 1);
  const __m128d mx_lo = _mm256_castpd256_pd128(mx);
  const __m128d mx_hi = _mm256_extractf128_pd(mx, 1);
  MinMaxXYResult r;
  r.min_x = std::min(_mm_cvtsd_f64(mn_lo), _mm_cvtsd_f64(mn_hi));
  r.min_y = std::min(_mm_cvtsd_f64(_mm_unpackhi_pd(mn_lo, mn_lo)),
                     _mm_cvtsd_f64(_mm_unpackhi_pd(mn_hi, mn_hi)));
  r.max_x = std::max(_mm_cvtsd_f64(mx_lo), _mm_cvtsd_f64(mx_hi));
  r.max_y = std::max(_mm_cvtsd_f64(_mm_unpackhi_pd(mx_lo, mx_lo)),
                     _mm_cvtsd_f64(_mm_unpackhi_pd(mx_hi, mx_hi)));
  for (; i < n; ++i) {
    r.min_x = std::min(r.min_x, xy[2 * i]);
    r.max_x = std::max(r.max_x, xy[2 * i]);
    r.min_y = std::min(r.min_y, xy[2 * i + 1]);
    r.max_y = std::max(r.max_y, xy[2 * i + 1]);
  }
  return r;
}

MinMaxFiniteResult MinMaxFinite(const double* v, size_t n) {
  const __m256d finite_max = _mm256_set1_pd(DBL_MAX);
  __m256d mn = _mm256_set1_pd(v[0]);
  __m256d mx = mn;
  __m256d ok = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(v + i);
    ok = _mm256_and_pd(ok, _mm256_cmp_pd(Abs256(a), finite_max, _CMP_LE_OQ));
    mn = MinStd256(mn, a);
    mx = MaxStd256(mx, a);
  }
  const __m128d mn_lo = _mm256_castpd256_pd128(mn);
  const __m128d mn_hi = _mm256_extractf128_pd(mn, 1);
  const __m128d mx_lo = _mm256_castpd256_pd128(mx);
  const __m128d mx_hi = _mm256_extractf128_pd(mx, 1);
  MinMaxFiniteResult r;
  r.all_finite = _mm256_movemask_pd(ok) == 0xF;
  r.min = std::min({_mm_cvtsd_f64(mn_lo), _mm_cvtsd_f64(mn_hi),
                    _mm_cvtsd_f64(_mm_unpackhi_pd(mn_lo, mn_lo)),
                    _mm_cvtsd_f64(_mm_unpackhi_pd(mn_hi, mn_hi))});
  r.max = std::max({_mm_cvtsd_f64(mx_lo), _mm_cvtsd_f64(mx_hi),
                    _mm_cvtsd_f64(_mm_unpackhi_pd(mx_lo, mx_lo)),
                    _mm_cvtsd_f64(_mm_unpackhi_pd(mx_hi, mx_hi))});
  for (; i < n; ++i) {
    r.all_finite = r.all_finite && std::fabs(v[i]) <= DBL_MAX;
    r.min = std::min(r.min, v[i]);
    r.max = std::max(r.max, v[i]);
  }
  return r;
}

}  // namespace avx2

#endif  // TYCOS_SIMD_LEVEL >= 2

// --- Public dispatch (build-time selection, no runtime branches) -----------

#if TYCOS_SIMD_LEVEL >= 2
namespace active = avx2;
#elif TYCOS_SIMD_LEVEL >= 1
namespace active = sse42;
#endif

const char* InstructionSet() {
#if TYCOS_SIMD_LEVEL >= 2
  return "avx2";
#elif TYCOS_SIMD_LEVEL >= 1
  return "sse4.2";
#else
  return "scalar";
#endif
}

size_t LaneCount() {
#if TYCOS_SIMD_LEVEL >= 2
  return 4;
#elif TYCOS_SIMD_LEVEL >= 1
  return 2;
#else
  return 1;
#endif
}

#if TYCOS_SIMD_LEVEL >= 1

void ChebyshevToProbe(const double* xy, size_t n, double px, double py,
                      double* out) {
  active::ChebyshevToProbe(xy, n, px, py, out);
}

void ChebyshevToProbeIdx(const double* xy, const int32_t* idx, size_t n,
                         double px, double py, double* out) {
  active::ChebyshevToProbeIdx(xy, idx, n, px, py, out);
}

size_t CountWithinInterleaved(const double* base, size_t n, double center,
                              double d) {
  return active::CountWithinInterleaved(base, n, center, d);
}

size_t LowerBound(const double* v, size_t n, double key) {
  return active::LowerBound(v, n, key);
}

size_t UpperBound(const double* v, size_t n, double key) {
  return active::UpperBound(v, n, key);
}

MinMaxXYResult MinMaxXY(const double* xy, size_t n) {
  return active::MinMaxXY(xy, n);
}

MinMaxFiniteResult MinMaxFinite(const double* v, size_t n) {
  return active::MinMaxFinite(v, n);
}

#else  // scalar build

void ChebyshevToProbe(const double* xy, size_t n, double px, double py,
                      double* out) {
  ChebyshevToProbeScalar(xy, n, px, py, out);
}

void ChebyshevToProbeIdx(const double* xy, const int32_t* idx, size_t n,
                         double px, double py, double* out) {
  ChebyshevToProbeIdxScalar(xy, idx, n, px, py, out);
}

size_t CountWithinInterleaved(const double* base, size_t n, double center,
                              double d) {
  return CountWithinInterleavedScalar(base, n, center, d);
}

size_t LowerBound(const double* v, size_t n, double key) {
  return LowerBoundScalar(v, n, key);
}

size_t UpperBound(const double* v, size_t n, double key) {
  return UpperBoundScalar(v, n, key);
}

MinMaxXYResult MinMaxXY(const double* xy, size_t n) {
  return MinMaxXYScalar(xy, n);
}

MinMaxFiniteResult MinMaxFinite(const double* v, size_t n) {
  return MinMaxFiniteScalar(v, n);
}

#endif  // TYCOS_SIMD_LEVEL

}  // namespace simd
}  // namespace tycos
