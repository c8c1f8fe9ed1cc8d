// KSG mutual information estimator (Kraskov–Stögbauer–Grassberger,
// estimator #2), the MI measure of the paper (Eq. 2 / Definition 4.6):
//
//   I(X;Y) = ψ(k) − 1/k − ⟨ψ(n_x) + ψ(n_y)⟩ + ψ(m)
//
// where for each sample the per-dimension extents (dx, dy) of its k nearest
// neighbours under L∞ define the marginal regions, and n_x / n_y count the
// samples falling inside them (self excluded), exactly as in the paper's
// Fig. 2 worked example.

#ifndef TYCOS_MI_KSG_H_
#define TYCOS_MI_KSG_H_

#include <span>
#include <vector>

#include "core/time_series.h"
#include "core/window.h"

namespace tycos {

// How KsgMi answers a window's m kNN queries. Every backend returns the
// same extents bit for bit. Searches run kBrute; the two index structures
// serve the benchmark replay, the micro benches and the agreement tests.
enum class KnnBackend {
  kBrute,     // one simd::KnnExtentsAll call, O(m) per query
  kKdTree,    // balanced 2-D tree, expected O(log m) queries
  kGrid,      // uniform grid with L∞ ring expansion (paper's [30])
};

// Counters for defined-but-degenerate estimator inputs. KSG is undefined on
// a constant marginal (every pairwise distance ties at 0, the kNN "extent"
// is an empty strip) and poisoned by non-finite samples; both are mapped to
// MI = 0 and counted here instead of reaching a degenerate kNN query.
struct KsgDiagnostics {
  int64_t degenerate_windows = 0;  // constant-marginal inputs scored as 0
  int64_t non_finite_inputs = 0;   // inputs containing nan/inf, scored as 0
};

struct KsgOptions {
  // Number of nearest neighbours (the paper's k; Kraskov et al. recommend
  // small values, 2–6).
  int k = 4;

  KnnBackend backend = KnnBackend::kBrute;

  // Optional out-counters, bumped when a degenerate input is scored 0.
  KsgDiagnostics* diagnostics = nullptr;
};

// The two inputs on which a kNN MI query is undefined, found in one
// simd::MinMaxFinite pass per marginal: a non-finite sample, or a constant
// marginal (every sample equal; +0.0 and -0.0 compare equal). Both KSG
// estimators score either as 0 and count it as a degenerate window.
enum class InputHealth { kOk, kConstantMarginal, kNonFinite };

InputHealth ClassifyInputs(std::span<const double> xs,
                           std::span<const double> ys);

// MI estimate for paired samples xs/ys (equal lengths). Returns 0 when the
// sample count is too small for the requested k (m < k + 2), when either
// marginal is constant, or when any sample is non-finite (see
// KsgDiagnostics) — degenerate inputs have defined behavior, never a
// degenerate kNN query. The raw KSG estimate may be slightly negative for
// independent data; callers that need a non-negative value clamp it.
//
// The backend yields each sample's kNN extents and one
// simd::MarginalCountsAll pass counts both marginals from them; the samples
// are read in place, never copied.
double KsgMi(std::span<const double> xs, std::span<const double> ys,
             const KsgOptions& options = {});

// MI of the time-delay window w on `pair` (Definition 4.6), read in place
// through WindowSpans.
double KsgMi(const SeriesPair& pair, const Window& w,
             const KsgOptions& options = {});

// Normalization mode for mapping raw MI to [0, 1] (Section 6.3.1).
enum class MiNormalization {
  // Ĩ = I_w / H_w with H_w the window's joint entropy from an adaptive 2-D
  // histogram; clamped to [0, 1]. The paper's Eq. (18), literally.
  kEntropyRatio,
  // Information coefficient of correlation: sqrt(1 − exp(−2·I)). Exact for
  // bivariate Gaussians, a robust monotone [0,1] mapping otherwise. The
  // library default: it separates weak non-functional relations (circle)
  // from noise far better than the entropy ratio on short windows.
  kCorrelationCoefficient,
};

// Small-sample significance penalty: before normalization the raw estimate
// is debiased as max(0, I − penalty/sqrt(m)). The KSG null distribution on
// independent data has a heavy O(1/sqrt(m)) tail, and a maximizing search
// over many short windows would otherwise surface pure-noise peaks;
// penalty = 2 pushes the empirical noise maximum below ~0.4 normalized
// while costing strong relations a few percent. 0 disables.
inline constexpr double kDefaultSmallSamplePenalty = 2.0;

// The one score function: maps the raw KSG estimate of the paired samples
// xs/ys (equal lengths m) to [0, 1]. A non-finite estimate scores 0;
// otherwise it is debiased by small_sample_penalty/sqrt(m), clamped at 0 and
// normalized per `mode`. kCorrelationCoefficient reads only m; kEntropyRatio
// reads the samples for the joint entropy H_w. Both evaluators, NormalizedMi
// and AMIC score through it.
double NormalizeMi(double raw_mi, std::span<const double> xs,
                   std::span<const double> ys, MiNormalization mode,
                   double small_sample_penalty);

// Normalized MI in [0, 1] for paired samples.
double NormalizedMi(
    std::span<const double> xs, std::span<const double> ys,
    const KsgOptions& options = {},
    MiNormalization mode = MiNormalization::kCorrelationCoefficient,
    double small_sample_penalty = kDefaultSmallSamplePenalty);

// Normalized MI of a window.
double NormalizedMi(
    const SeriesPair& pair, const Window& w, const KsgOptions& options = {},
    MiNormalization mode = MiNormalization::kCorrelationCoefficient,
    double small_sample_penalty = kDefaultSmallSamplePenalty);

namespace internal {

// Applies the deterministic tie-breaking jitter in place (exposed so
// PrepareForSearch can jitter a search's series once, up front).
void ApplyTieJitter(std::vector<double>* values, double relative_amplitude,
                    uint64_t salt);

}  // namespace internal

}  // namespace tycos

#endif  // TYCOS_MI_KSG_H_
