#include "mi/ksg.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/math.h"
#include "common/simd.h"
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
  // std::upper_bound (ClassifyInputs has ruled out NaN in the arrays).
  const size_t lo = simd::LowerBound(sorted.data(), sorted.size(), center - d);
  const size_t hi = simd::UpperBound(sorted.data(), sorted.size(), center + d);
  return static_cast<int64_t>(hi) - static_cast<int64_t>(lo) - 1;  // - self
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
  // MI of 0 instead of reaching a degenerate kNN query.
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
  // window the thread has scored.
  thread_local std::vector<double> sorted_x, sorted_y, extent_x, extent_y;
  thread_local std::vector<Point2> points;
  thread_local std::vector<int64_t> nxs, nys;
  thread_local DigammaTable psi;

  const size_t n = static_cast<size_t>(m);
  sorted_x.assign(xs.begin(), xs.end());
  sorted_y.assign(ys.begin(), ys.end());
  std::sort(sorted_x.begin(), sorted_x.end());
  std::sort(sorted_y.begin(), sorted_y.end());

  // Marginal counts are collected per query and the digamma sum is batched
  // into one table walk afterwards (DigammaTable::SumPairs, which also
  // clamps each count to >= 1) — same addition order and grouping as the
  // old per-query accumulation, bit-identical.
  nxs.resize(n);
  nys.resize(n);
  auto accumulate = [&](size_t i, const KnnExtents& e) {
    nxs[i] = CountClosed(sorted_x, xs[i], e.dx);
    nys[i] = CountClosed(sorted_y, ys[i], e.dy);
  };
  // Each backend answers m queries; the counter is bumped once per call
  // (outside the query loop) so the per-point kernel stays registry-free.
  if (options.backend == KnnBackend::kBrute) {
    // One kernel call answers every query of the window.
    extent_x.resize(n);
    extent_y.resize(n);
    simd::KnnExtentsAll(xs.data(), ys.data(), n, static_cast<size_t>(k),
                        extent_x.data(), extent_y.data());
    for (size_t i = 0; i < n; ++i) accumulate(i, {extent_x[i], extent_y[i]});
    static obs::Counter* queries = obs::GetCounter("knn.brute.queries");
    queries->Add(m);
  } else {
    points.resize(n);
    for (size_t i = 0; i < n; ++i) points[i] = {xs[i], ys[i]};
    if (options.backend == KnnBackend::kKdTree) {
      KdTree tree(points);
      for (size_t i = 0; i < n; ++i) accumulate(i, tree.QueryExtents(i, k));
      static obs::Counter* queries = obs::GetCounter("knn.kd_tree.queries");
      queries->Add(m);
    } else {
      GridIndex grid(points);
      for (size_t i = 0; i < n; ++i) accumulate(i, grid.QueryExtents(i, k));
      static obs::Counter* queries = obs::GetCounter("knn.grid.queries");
      queries->Add(m);
    }
  }

  const double marginal_sum = psi.SumPairs(nxs.data(), nys.data(), n);
  return psi(static_cast<size_t>(k)) - 1.0 / k -
         marginal_sum / static_cast<double>(m) + psi(static_cast<size_t>(m));
}

double KsgMi(const SeriesPair& pair, const Window& w,
             const KsgOptions& options) {
  thread_local std::vector<double> xs, ys;
  ExtractSamples(pair, w, &xs, &ys);
  return KsgMi(xs, ys, options);
}

double NormalizeMi(double raw_mi, std::span<const double> xs,
                   std::span<const double> ys, MiNormalization mode,
                   double small_sample_penalty) {
  if (!std::isfinite(raw_mi)) return 0.0;
  if (small_sample_penalty > 0.0 && !xs.empty()) {
    raw_mi -= small_sample_penalty / std::sqrt(static_cast<double>(xs.size()));
  }
  if (raw_mi <= 0.0) return 0.0;
  if (mode == MiNormalization::kCorrelationCoefficient) {
    return std::sqrt(1.0 - std::exp(-2.0 * raw_mi));
  }
  const double h = HistogramJointEntropy(xs, ys);
  if (h <= 0.0) return 0.0;
  return std::clamp(raw_mi / h, 0.0, 1.0);
}

double NormalizedMi(const std::vector<double>& xs,
                    const std::vector<double>& ys, const KsgOptions& options,
                    MiNormalization mode, double small_sample_penalty) {
  return NormalizeMi(KsgMi(xs, ys, options), xs, ys, mode,
                     small_sample_penalty);
}

double NormalizedMi(const SeriesPair& pair, const Window& w,
                    const KsgOptions& options, MiNormalization mode,
                    double small_sample_penalty) {
  std::vector<double> xs, ys;
  ExtractSamples(pair, w, &xs, &ys);
  return NormalizedMi(xs, ys, options, mode, small_sample_penalty);
}

}  // namespace tycos
