#include "mi/ksg.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/math.h"
#include "common/simd.h"
#include "knn/brute_knn.h"
#include "knn/grid_index.h"
#include "knn/kd_tree.h"
#include "mi/entropy.h"
#include "obs/metrics.h"

namespace tycos {

namespace internal {

namespace {

// SplitMix64: cheap, high-quality 64-bit mix used to derive deterministic
// per-index jitter.
uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void ApplyTieJitter(std::vector<double>* values, double relative_amplitude,
                    uint64_t salt) {
  if (relative_amplitude <= 0.0 || values->empty()) return;
  const auto [lo, hi] = std::minmax_element(values->begin(), values->end());
  double range = *hi - *lo;
  if (range == 0.0) range = 1.0;
  const double amp = relative_amplitude * range;
  for (size_t i = 0; i < values->size(); ++i) {
    // Uniform in [-0.5, 0.5), scaled.
    const double u =
        static_cast<double>(Mix64(salt * 0x9e3779b97f4a7c15ULL + i) >> 11) *
            (1.0 / 9007199254740992.0) -
        0.5;
    (*values)[i] += amp * u;
  }
}

}  // namespace internal

namespace {

// Closed-interval marginal count over a sorted value array, self excluded:
// #{ j != self : center - d <= v_j <= center + d }. All call sites (batch
// and incremental estimators) share these closed-interval semantics.
int64_t CountClosed(const std::vector<double>& sorted, double center,
                    double d) {
  // SIMD bound searches are bit-exact equivalents of std::lower_bound /
  // std::upper_bound (the arrays are jittered finite values: NaN-free).
  const size_t lo = simd::LowerBound(sorted.data(), sorted.size(), center - d);
  const size_t hi = simd::UpperBound(sorted.data(), sorted.size(), center + d);
  return static_cast<int64_t>(hi) - static_cast<int64_t>(lo) - 1;  // - self
}

// The interleaved-double view of a Point2 array that the SIMD kernels scan.
static_assert(sizeof(Point2) == 2 * sizeof(double),
              "Point2 must be two packed doubles");
const double* AsXy(const std::vector<Point2>& points) {
  return reinterpret_cast<const double*>(points.data());
}

// Theiler-corrected KSG: every count excludes samples within
// `theiler` steps of the query index. Brute-force O(m(m + T)) — this mode
// is an accuracy feature for autocorrelated data, not a fast path.
double KsgMiTheiler(const std::vector<Point2>& points, int k,
                    int64_t theiler, DigammaTable& psi) {
  const int64_t m = static_cast<int64_t>(points.size());
  // Need at least k eligible candidates for every point.
  if (m - 2 * theiler - 1 < k + 1) return 0.0;

  const double* xy = AsXy(points);
  double marginal_sum = 0.0;
  double pool_sum = 0.0;
  thread_local std::vector<double> dist;
  dist.resize(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    const Point2& probe = points[static_cast<size_t>(i)];
    // One vectorized distance pass over every point; the Theiler
    // eligibility mask is applied by the scan ranges below, which run in
    // index order, so the (distance, index) tie-break is unchanged.
    simd::ChebyshevToProbe(xy, static_cast<size_t>(m), probe.x, probe.y,
                           dist.data());
    const int64_t lo_n = std::max<int64_t>(0, i - theiler);
    const int64_t hi_start = std::min<int64_t>(m, i + theiler + 1);
    const int64_t pool = lo_n + (m - hi_start);
    KnnSelector selector(k);
    for (int64_t j = 0; j < lo_n; ++j) {
      selector.OfferAscending(dist[static_cast<size_t>(j)],
                              static_cast<size_t>(j));
    }
    for (int64_t j = hi_start; j < m; ++j) {
      selector.OfferAscending(dist[static_cast<size_t>(j)],
                              static_cast<size_t>(j));
    }
    const KnnExtents e = selector.Extents(points, probe);
    // Marginal counts over the same eligible pool, on each side of the
    // Theiler exclusion zone.
    int64_t nx = 0;
    int64_t ny = 0;
    auto count = [&](int64_t j) {
      const Point2& p = points[static_cast<size_t>(j)];
      if (std::fabs(p.x - probe.x) <= e.dx) ++nx;
      if (std::fabs(p.y - probe.y) <= e.dy) ++ny;
    };
    for (int64_t j = 0; j < lo_n; ++j) count(j);
    for (int64_t j = hi_start; j < m; ++j) count(j);
    marginal_sum += psi(static_cast<size_t>(std::max<int64_t>(nx, 1))) +
                    psi(static_cast<size_t>(std::max<int64_t>(ny, 1)));
    pool_sum += psi(static_cast<size_t>(pool));
  }
  // Per-point pool sizes replace ψ(m): each point's neighbourhood
  // probabilities are estimated against its own eligible candidate set.
  return psi(static_cast<size_t>(k)) - 1.0 / k -
         marginal_sum / static_cast<double>(m) +
         pool_sum / static_cast<double>(m);
}

}  // namespace

// Single pass over both marginals: detects non-finite samples and constant
// marginals, the two inputs on which a kNN MI query is undefined.
enum class InputHealth { kOk, kConstantMarginal, kNonFinite };

InputHealth ClassifyInputs(const std::vector<double>& xs,
                           const std::vector<double>& ys) {
  const simd::MinMaxFiniteResult x = simd::MinMaxFinite(xs.data(), xs.size());
  const simd::MinMaxFiniteResult y = simd::MinMaxFinite(ys.data(), ys.size());
  if (!x.all_finite || !y.all_finite) return InputHealth::kNonFinite;
  if (x.min == x.max || y.min == y.max) {
    return InputHealth::kConstantMarginal;
  }
  return InputHealth::kOk;
}

double KsgMi(const std::vector<double>& xs, const std::vector<double>& ys,
             const KsgOptions& options) {
  TYCOS_CHECK_EQ(xs.size(), ys.size());
  const int64_t m = static_cast<int64_t>(xs.size());
  const int k = options.k;
  TYCOS_CHECK_GE(k, 1);
  if (m < k + 2) return 0.0;

  // Hostile-input guard: constant (or non-finite) inputs score a defined
  // MI of 0. The check runs before jitter so a constant series stays
  // constant rather than becoming jitter noise.
  switch (ClassifyInputs(xs, ys)) {
    case InputHealth::kOk:
      break;
    case InputHealth::kConstantMarginal:
      if (options.diagnostics) ++options.diagnostics->degenerate_windows;
      return 0.0;
    case InputHealth::kNonFinite:
      if (options.diagnostics) {
        ++options.diagnostics->degenerate_windows;
        ++options.diagnostics->non_finite_inputs;
      }
      return 0.0;
  }

  // Per-thread scratch: each buffer is resized, never shrunk, so a thread
  // in steady state allocates nothing; memory is bounded by the largest
  // window the thread has scored. The inputs are used in place unless
  // jitter has to perturb a copy.
  thread_local std::vector<double> jittered_x, jittered_y, sorted_x, sorted_y;
  thread_local std::vector<Point2> points;
  thread_local std::vector<int64_t> nxs, nys;
  thread_local DigammaTable psi;
  const bool jitter = options.tie_jitter > 0.0;
  if (jitter) {
    jittered_x.assign(xs.begin(), xs.end());
    jittered_y.assign(ys.begin(), ys.end());
    internal::ApplyTieJitter(&jittered_x, options.tie_jitter, /*salt=*/1);
    internal::ApplyTieJitter(&jittered_y, options.tie_jitter, /*salt=*/2);
  }
  const std::vector<double>& x = jitter ? jittered_x : xs;
  const std::vector<double>& y = jitter ? jittered_y : ys;

  points.resize(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    points[static_cast<size_t>(i)] = {x[static_cast<size_t>(i)],
                                      y[static_cast<size_t>(i)]};
  }
  if (options.theiler_window > 0) {
    return KsgMiTheiler(points, k, options.theiler_window, psi);
  }

  sorted_x.assign(x.begin(), x.end());
  sorted_y.assign(y.begin(), y.end());
  std::sort(sorted_x.begin(), sorted_x.end());
  std::sort(sorted_y.begin(), sorted_y.end());

  KnnBackend backend = options.backend;
  if (backend == KnnBackend::kAuto) {
    backend = m <= 256 ? KnnBackend::kBrute : KnnBackend::kKdTree;
  }

  // Marginal counts are collected per query and the digamma sum is batched
  // into one table walk afterwards (DigammaTable::SumPairs, which also
  // clamps each count to >= 1) — same addition order and grouping as the
  // old per-query accumulation, bit-identical.
  nxs.resize(static_cast<size_t>(m));
  nys.resize(static_cast<size_t>(m));
  auto accumulate = [&](int64_t i, const KnnExtents& e) {
    nxs[static_cast<size_t>(i)] =
        CountClosed(sorted_x, x[static_cast<size_t>(i)], e.dx);
    nys[static_cast<size_t>(i)] =
        CountClosed(sorted_y, y[static_cast<size_t>(i)], e.dy);
  };
  // Each backend answers m queries; the counter is bumped once per call
  // (outside the query loop) so the per-point kernel stays registry-free.
  if (backend == KnnBackend::kKdTree) {
    KdTree tree(points);
    for (int64_t i = 0; i < m; ++i) {
      accumulate(i, tree.QueryExtents(static_cast<size_t>(i), k));
    }
    static obs::Counter* queries = obs::GetCounter("knn.kd_tree.queries");
    queries->Add(m);
  } else if (backend == KnnBackend::kGrid) {
    GridIndex grid(points);
    for (int64_t i = 0; i < m; ++i) {
      accumulate(i, grid.QueryExtents(static_cast<size_t>(i), k));
    }
    static obs::Counter* queries = obs::GetCounter("knn.grid.queries");
    queries->Add(m);
  } else {
    for (int64_t i = 0; i < m; ++i) {
      accumulate(i, BruteKnnExtents(points, static_cast<size_t>(i), k));
    }
    static obs::Counter* queries = obs::GetCounter("knn.brute.queries");
    queries->Add(m);
  }

  const double marginal_sum =
      psi.SumPairs(nxs.data(), nys.data(), static_cast<size_t>(m));
  return psi(static_cast<size_t>(k)) - 1.0 / k -
         marginal_sum / static_cast<double>(m) + psi(static_cast<size_t>(m));
}

double KsgMi(const SeriesPair& pair, const Window& w,
             const KsgOptions& options) {
  thread_local std::vector<double> xs, ys;
  ExtractSamples(pair, w, &xs, &ys);
  return KsgMi(xs, ys, options);
}

double NormalizedMi(const std::vector<double>& xs,
                    const std::vector<double>& ys, const KsgOptions& options,
                    MiNormalization mode, double small_sample_penalty) {
  double mi = KsgMi(xs, ys, options);
  if (small_sample_penalty > 0.0 && !xs.empty()) {
    mi -= small_sample_penalty / std::sqrt(static_cast<double>(xs.size()));
  }
  if (mi <= 0.0) return 0.0;
  if (mode == MiNormalization::kCorrelationCoefficient) {
    return std::sqrt(1.0 - std::exp(-2.0 * mi));
  }
  const double h = HistogramJointEntropy(xs, ys);
  if (h <= 0.0) return 0.0;
  return std::clamp(mi / h, 0.0, 1.0);
}

double NormalizedMi(const SeriesPair& pair, const Window& w,
                    const KsgOptions& options, MiNormalization mode,
                    double small_sample_penalty) {
  std::vector<double> xs, ys;
  ExtractSamples(pair, w, &xs, &ys);
  return NormalizedMi(xs, ys, options, mode, small_sample_penalty);
}

}  // namespace tycos
