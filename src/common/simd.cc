// The ONLY translation unit allowed to contain raw vector intrinsics
// (enforced by tools/lint.py --simd-hygiene). Built with -mavx2 when
// TYCOS_SIMD_LEVEL is 2 (src/CMakeLists.txt sets it per-source, so the rest
// of the tree keeps baseline codegen); the scalar twins compile in every
// build, are the bit-exactness reference, and are the kernels themselves
// in a scalar build.

#include "common/simd.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <utility>
#include <vector>

#if TYCOS_SIMD_LEVEL >= 2
#include <immintrin.h>
#endif

namespace tycos {
namespace simd {

#if TYCOS_SIMD_LEVEL >= 2

namespace {

inline __m256d Abs256(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);  // clear sign, like fabs
}

// std::max(a, b) selection semantics: (a < b) ? b : a, NaN included.
// vmaxpd returns its SECOND operand on an unordered compare or a tie, so
// swapping the operands reproduces the std::max selection rule in one
// instruction (vmaxpd(b, a) = b > a ? b : a, NaN/tie -> a).
inline __m256d MaxStd256(__m256d a, __m256d b) {
  return _mm256_max_pd(b, a);
}

// std::min(a, b) selection semantics: (b < a) ? b : a. Same operand swap.
inline __m256d MinStd256(__m256d a, __m256d b) {
  return _mm256_min_pd(b, a);
}

// One value per query lane of a KnnExtentsAll lane group.
struct alignas(32) Lane4 {
  double v[4];
};

// |x_j - qx|, |y_j - qy| and their max, the L∞ distance, for the four
// query lanes: the operations and operand order of ChebyshevToProbeScalar.
inline __m256d LaneDistance(const double* x, const double* y, size_t j,
                            __m256d qx, __m256d qy, __m256d* ax,
                            __m256d* ay) {
  *ax = Abs256(_mm256_sub_pd(_mm256_broadcast_sd(x + j), qx));
  *ay = Abs256(_mm256_sub_pd(_mm256_broadcast_sd(y + j), qy));
  return MaxStd256(*ax, *ay);
}

// KnnExtentsAll's AVX2 body; with kLists the rescan also fills `lists`.
template <bool kLists>
void KnnExtentsAllAvx2(const double* x, const double* y, size_t m, size_t k,
                       double* dx, double* dy, KnnEntry* lists) {
  // slots[t] holds each lane's (t+1)-th smallest distance so far.
  thread_local std::vector<Lane4> slots;
  if (slots.size() < k) slots.resize(k);
  const __m256d inf = _mm256_set1_pd(HUGE_VAL);
  const __m256d lane = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  // Lane l of a group answers query i0 + l. A last group with fewer than
  // four queries repeats its last point in the spare lanes and drops their
  // answers. Candidate j is its own query in lane j - i0 (a wrapped,
  // huge difference when j < i0): that lane alone leaves it out.
  for (size_t i0 = 0; i0 < m; i0 += 4) {
    const size_t lanes = std::min<size_t>(4, m - i0);
    alignas(32) double qx_in[4], qy_in[4];
    for (size_t l = 0; l < 4; ++l) {
      qx_in[l] = x[i0 + std::min(l, lanes - 1)];
      qy_in[l] = y[i0 + std::min(l, lanes - 1)];
    }
    const __m256d qx = _mm256_load_pd(qx_in);
    const __m256d qy = _mm256_load_pd(qy_in);
    __m256d ax, ay;

    // Pass 1: the k smallest distances per lane through a sorted min/max
    // network; the query's own distance enters as +inf, which never
    // displaces a real candidate's (there are m - 1 >= k of them). Some
    // lane admits candidate j with probability about 4k/j, so a branch
    // that lets a candidate no lane admits skip the network mispredicts
    // about as often as not until j nears 16k. The first `warm` candidates
    // therefore all go through the network (one that no lane admits leaves
    // every slot as it was); only later ones may skip it.
    const size_t warm = 16 * k;
    for (size_t t = 0; t < k; ++t) _mm256_store_pd(slots[t].v, inf);
    for (size_t j = 0; j < m; ++j) {
      __m256d d = LaneDistance(x, y, j, qx, qy, &ax, &ay);
      if (j - i0 < 4) {
        const __m256d self = _mm256_cmp_pd(
            lane, _mm256_set1_pd(static_cast<double>(j - i0)), _CMP_EQ_OQ);
        d = _mm256_blendv_pd(d, inf, self);
      }
      if (j >= warm) {
        const __m256d admits =
            _mm256_cmp_pd(d, _mm256_load_pd(slots[k - 1].v), _CMP_LT_OQ);
        if (_mm256_movemask_pd(admits) == 0) continue;
      }
      for (size_t t = 0; t < k; ++t) {
        const __m256d s = _mm256_load_pd(slots[t].v);
        _mm256_store_pd(slots[t].v, _mm256_min_pd(s, d));
        d = _mm256_max_pd(s, d);
      }
    }

    // Pass 2: the k nearest under (distance, index) are every candidate
    // below the k-th distance r plus, in index order, the first `need`
    // candidates at r. Their extents are the max over that set.
    const __m256d r = _mm256_load_pd(slots[k - 1].v);
    __m256i need = _mm256_set1_epi64x(static_cast<long long>(k));
    for (size_t t = 0; t < k; ++t) {
      // A true compare is -1 in each 64-bit lane: adding it counts down.
      need = _mm256_add_epi64(
          need, _mm256_castpd_si256(_mm256_cmp_pd(
                    _mm256_load_pd(slots[t].v), r, _CMP_LT_OQ)));
    }
    __m256i ties_seen = _mm256_setzero_si256();
    __m256d ex = _mm256_setzero_pd();
    __m256d ey = ex;
    size_t listed[4] = {0, 0, 0, 0};
    for (size_t j = 0; j < m; ++j) {
      const __m256d d = LaneDistance(x, y, j, qx, qy, &ax, &ay);
      __m256d below = _mm256_cmp_pd(d, r, _CMP_LT_OQ);
      __m256d tie = _mm256_cmp_pd(d, r, _CMP_EQ_OQ);
      if (j - i0 < 4) {
        const __m256d other = _mm256_cmp_pd(
            lane, _mm256_set1_pd(static_cast<double>(j - i0)), _CMP_NEQ_OQ);
        below = _mm256_and_pd(below, other);
        tie = _mm256_and_pd(tie, other);
      }
      const __m256d take = _mm256_or_pd(
          below, _mm256_and_pd(tie, _mm256_castsi256_pd(
                                        _mm256_cmpgt_epi64(need, ties_seen))));
      ties_seen = _mm256_sub_epi64(ties_seen, _mm256_castpd_si256(tie));
      // A lane that does not take j sees +0, which never raises a max.
      ex = MaxStd256(ex, _mm256_and_pd(take, ax));
      ey = MaxStd256(ey, _mm256_and_pd(take, ay));
      if constexpr (kLists) {
        // Each real lane takes exactly k candidates, in index order, so a
        // strict-less insertion leaves its list in the KnnBefore order.
        unsigned taken = static_cast<unsigned>(_mm256_movemask_pd(take)) &
                         ((1u << lanes) - 1u);
        if (taken == 0) continue;
        alignas(32) double d_out[4];
        _mm256_store_pd(d_out, d);
        for (; taken != 0; taken &= taken - 1) {
          const size_t l = static_cast<size_t>(__builtin_ctz(taken));
          KnnEntry* list = lists + (i0 + l) * k;
          size_t pos = listed[l]++;
          for (; pos > 0 && d_out[l] < list[pos - 1].d; --pos) {
            list[pos] = list[pos - 1];
          }
          list[pos] = {d_out[l], j};
        }
      }
    }
    alignas(32) double ex_out[4], ey_out[4];
    _mm256_store_pd(ex_out, ex);
    _mm256_store_pd(ey_out, ey);
    std::copy(ex_out, ex_out + lanes, dx + i0);
    std::copy(ey_out, ey_out + lanes, dy + i0);
  }
}

// The dots at band positions at[v] .. at[v] + 3 for each vector v of the
// group: one accumulator per vector, and per lane the twin's sum (+0.0,
// then q[j] · t[i + j] added in ascending j, multiply and add apart). The
// folds expand per vector, so the accumulators stay in registers.
template <size_t... V>
void SlidingDotsGroup(const double* q, size_t m, const double* t,
                      const size_t* at, double* out,
                      std::index_sequence<V...>) {
  const double* const base[] = {(t + at[V])...};
  __m256d acc[] = {(static_cast<void>(V), _mm256_setzero_pd())...};
  for (size_t j = 0; j < m; ++j) {
    const __m256d qj = _mm256_broadcast_sd(q + j);
    ((acc[V] = _mm256_add_pd(
          acc[V], _mm256_mul_pd(qj, _mm256_loadu_pd(base[V] + j)))),
     ...);
  }
  (_mm256_storeu_pd(out + at[V], acc[V]), ...);
}

}  // namespace

#endif  // TYCOS_SIMD_LEVEL >= 2

// --- Scalar twins (always compiled; the test reference) -------------------

void ChebyshevToProbeScalar(const double* xy, size_t n, double px, double py,
                            double* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = std::max(std::fabs(xy[2 * i] - px), std::fabs(xy[2 * i + 1] - py));
  }
}

void KnnExtentsAllScalar(const double* x, const double* y, size_t m, size_t k,
                         double* dx, double* dy, KnnEntry* lists) {
  // KnnSelector's OfferAscending and InsertSorted, carrying |Δx| and |Δy|
  // beside each entry.
  struct Slot {
    double d, ax, ay;
    size_t index;
  };
  thread_local std::vector<Slot> slots;
  if (slots.size() < k) slots.resize(k);
  for (size_t i = 0; i < m; ++i) {
    size_t filled = 0;
    for (size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      const double ax = std::fabs(x[j] - x[i]);
      const double ay = std::fabs(y[j] - y[i]);
      const double d = std::max(ax, ay);
      if (filled == k && !(d < slots[k - 1].d)) continue;
      size_t pos = filled < k ? filled++ : k - 1;
      for (; pos > 0 && d < slots[pos - 1].d; --pos) {
        slots[pos] = slots[pos - 1];
      }
      slots[pos] = {d, ax, ay, j};
    }
    double ex = 0.0, ey = 0.0;
    for (size_t t = 0; t < k; ++t) {
      ex = std::max(ex, slots[t].ax);
      ey = std::max(ey, slots[t].ay);
      if (lists) lists[i * k + t] = {slots[t].d, slots[t].index};
    }
    dx[i] = ex;
    dy[i] = ey;
  }
}

void MarginalCountsAllScalar(const double* x, const double* y, size_t m,
                             const double* dx, const double* dy, int64_t* nx,
                             int64_t* ny) {
  for (size_t i = 0; i < m; ++i) {
    const double x_lo = x[i] - dx[i], x_hi = x[i] + dx[i];
    const double y_lo = y[i] - dy[i], y_hi = y[i] + dy[i];
    int64_t cx = 0, cy = 0;
    for (size_t j = 0; j < m; ++j) {
      cx += (x[j] >= x_lo) & (x[j] <= x_hi);
      cy += (y[j] >= y_lo) & (y[j] <= y_hi);
    }
    nx[i] = cx - 1;  // minus self
    ny[i] = cy - 1;
  }
}

int64_t CountInStripScalar(const double* v, size_t n, double c, double e) {
  const double lo = c - e, hi = c + e;
  int64_t count = 0;
  for (size_t i = 0; i < n; ++i) count += (v[i] >= lo) & (v[i] <= hi);
  return count;
}

void SlidingDotsScalar(const double* q, size_t m, const double* t,
                       size_t band, double* out) {
  for (size_t i = 0; i < band; ++i) {
    double dot = 0.0;
    for (size_t j = 0; j < m; ++j) dot += q[j] * t[i + j];
    out[i] = dot;
  }
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

// --- Kernels: the AVX2 body (__m256d, 4 doubles per op) or the twin --------

const char* InstructionSet() {
#if TYCOS_SIMD_LEVEL >= 2
  return "avx2";
#else
  return "scalar";
#endif
}

void ChebyshevToProbe(const double* xy, size_t n, double px, double py,
                      double* out) {
#if TYCOS_SIMD_LEVEL >= 2
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
#else
  ChebyshevToProbeScalar(xy, n, px, py, out);
#endif
}

void KnnExtentsAll(const double* x, const double* y, size_t m, size_t k,
                   double* dx, double* dy, KnnEntry* lists) {
#if TYCOS_SIMD_LEVEL >= 2
  if (lists) {
    KnnExtentsAllAvx2<true>(x, y, m, k, dx, dy, lists);
  } else {
    KnnExtentsAllAvx2<false>(x, y, m, k, dx, dy, nullptr);
  }
#else
  KnnExtentsAllScalar(x, y, m, k, dx, dy, lists);
#endif
}

void MarginalCountsAll(const double* x, const double* y, size_t m,
                       const double* dx, const double* dy, int64_t* nx,
                       int64_t* ny) {
#if TYCOS_SIMD_LEVEL >= 2
  // Lane l of a group counts for query i0 + l. A last group with fewer than
  // four queries repeats its last query in the spare lanes and drops their
  // counts.
  for (size_t i0 = 0; i0 < m; i0 += 4) {
    const size_t lanes = std::min<size_t>(4, m - i0);
    alignas(32) double qx_in[4], qy_in[4], ex_in[4], ey_in[4];
    for (size_t l = 0; l < 4; ++l) {
      const size_t i = i0 + std::min(l, lanes - 1);
      qx_in[l] = x[i];
      qy_in[l] = y[i];
      ex_in[l] = dx[i];
      ey_in[l] = dy[i];
    }
    const __m256d qx = _mm256_load_pd(qx_in);
    const __m256d qy = _mm256_load_pd(qy_in);
    const __m256d ex = _mm256_load_pd(ex_in);
    const __m256d ey = _mm256_load_pd(ey_in);
    const __m256d x_lo = _mm256_sub_pd(qx, ex), x_hi = _mm256_add_pd(qx, ex);
    const __m256d y_lo = _mm256_sub_pd(qy, ey), y_hi = _mm256_add_pd(qy, ey);
    __m256i cx = _mm256_setzero_si256();
    __m256i cy = cx;
    for (size_t j = 0; j < m; ++j) {
      const __m256d vx = _mm256_broadcast_sd(x + j);
      const __m256d vy = _mm256_broadcast_sd(y + j);
      const __m256d in_x = _mm256_and_pd(_mm256_cmp_pd(vx, x_lo, _CMP_GE_OQ),
                                         _mm256_cmp_pd(vx, x_hi, _CMP_LE_OQ));
      const __m256d in_y = _mm256_and_pd(_mm256_cmp_pd(vy, y_lo, _CMP_GE_OQ),
                                         _mm256_cmp_pd(vy, y_hi, _CMP_LE_OQ));
      // A true compare is -1 in each 64-bit lane: subtracting it counts up.
      cx = _mm256_sub_epi64(cx, _mm256_castpd_si256(in_x));
      cy = _mm256_sub_epi64(cy, _mm256_castpd_si256(in_y));
    }
    const __m256i self = _mm256_set1_epi64x(1);
    alignas(32) int64_t nx_out[4], ny_out[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(nx_out),
                       _mm256_sub_epi64(cx, self));
    _mm256_store_si256(reinterpret_cast<__m256i*>(ny_out),
                       _mm256_sub_epi64(cy, self));
    std::copy(nx_out, nx_out + lanes, nx + i0);
    std::copy(ny_out, ny_out + lanes, ny + i0);
  }
#else
  MarginalCountsAllScalar(x, y, m, dx, dy, nx, ny);
#endif
}

int64_t CountInStrip(const double* v, size_t n, double c, double e) {
#if TYCOS_SIMD_LEVEL >= 2
  const double lo = c - e, hi = c + e;
  const __m256d lo4 = _mm256_set1_pd(lo), hi4 = _mm256_set1_pd(hi);
  __m256i counts = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_loadu_pd(v + i);
    const __m256d in = _mm256_and_pd(_mm256_cmp_pd(a, lo4, _CMP_GE_OQ),
                                     _mm256_cmp_pd(a, hi4, _CMP_LE_OQ));
    // A true compare is -1 in each 64-bit lane: subtracting it counts up.
    counts = _mm256_sub_epi64(counts, _mm256_castpd_si256(in));
  }
  alignas(32) int64_t lane_counts[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_counts), counts);
  int64_t count = lane_counts[0] + lane_counts[1] + lane_counts[2] +
                  lane_counts[3];
  for (; i < n; ++i) count += (v[i] >= lo) & (v[i] <= hi);
  return count;
#else
  return CountInStripScalar(v, n, c, e);
#endif
}

void SlidingDots(const double* q, size_t m, const double* t, size_t band,
                 double* out) {
#if TYCOS_SIMD_LEVEL >= 2
  if (band < 4) {
    SlidingDotsScalar(q, m, t, band, out);
    return;
  }
  // Vector u covers positions 4u .. 4u + 3, and a band that is not a
  // multiple of four adds one at band - 4. A group of k vectors runs k
  // independent chains: four keep the multiply and add ports busy for a
  // chain's add latency, and up to seven just fill them, so every group
  // but the last takes four and the last takes the four to seven left
  // (fewer only in a band of 12 positions or fewer).
  const size_t whole = band / 4;
  const size_t vecs = whole + (band % 4 != 0 ? 1 : 0);
  size_t at[7] = {};
  size_t u = 0;
  for (; vecs - u >= 8; u += 4) {
    for (size_t v = 0; v < 4; ++v) at[v] = 4 * (u + v);
    SlidingDotsGroup(q, m, t, at, out, std::make_index_sequence<4>());
  }
  const size_t left = vecs - u;
  for (size_t v = 0; v < left; ++v) {
    at[v] = u + v < whole ? 4 * (u + v) : band - 4;
  }
  switch (left) {
    case 1:
      SlidingDotsGroup(q, m, t, at, out, std::make_index_sequence<1>());
      break;
    case 2:
      SlidingDotsGroup(q, m, t, at, out, std::make_index_sequence<2>());
      break;
    case 3:
      SlidingDotsGroup(q, m, t, at, out, std::make_index_sequence<3>());
      break;
    case 4:
      SlidingDotsGroup(q, m, t, at, out, std::make_index_sequence<4>());
      break;
    case 5:
      SlidingDotsGroup(q, m, t, at, out, std::make_index_sequence<5>());
      break;
    case 6:
      SlidingDotsGroup(q, m, t, at, out, std::make_index_sequence<6>());
      break;
    default:
      SlidingDotsGroup(q, m, t, at, out, std::make_index_sequence<7>());
      break;
  }
#else
  SlidingDotsScalar(q, m, t, band, out);
#endif
}

MinMaxFiniteResult MinMaxFinite(const double* v, size_t n) {
#if TYCOS_SIMD_LEVEL >= 2
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
#else
  return MinMaxFiniteScalar(v, n);
#endif
}

}  // namespace simd
}  // namespace tycos
