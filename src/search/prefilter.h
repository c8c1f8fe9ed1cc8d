// Cheap-to-expensive prefilter cascade in front of PairwiseSearch: prunes
// the O(C²) pair universe down to the pairs that can plausibly hold a
// delay-correlated window, so full TYCOS runs on survivors only.
//
//   Window statistics — each channel's two-pass mean and standard
//     deviation at every probe start (the hop-grid starts and their
//     ±td_max bands), computed once and read by both stages.
//   Stage 1 — PAA sketch + SVD + ε-bucketing (near-linear candidate
//     generation). Every channel is sketched at hop-grid window starts:
//     the window is z-normalized and reduced to `paa_segments` weighted
//     segment means (coordinate j is sqrt(len_j) · mean_j, so the sketch
//     distance LOWER-bounds the z-normalized Euclidean distance). Sketches
//     are projected onto the top `svd_dims` principal directions (an
//     orthonormal projection, another contraction) and inserted into a
//     grid hash with cell width ε₁; probes cover every start within
//     ±td_max of a grid start, both correlation signs, and the 3^d
//     neighboring cells, so any pair within ε₁ is generated.
//   Stage 2 — sliding-dot Pearson prescreen. For each surviving pair, the
//     exact max |Pearson r| over (hop-grid start on either channel) ×
//     (every delay |τ| ≤ td_max) is computed from the dot products of the
//     centred query window with every window of its delay band
//     (simd::SlidingDots, O(window · band)) and the windows' statistics;
//     pairs below the threshold are dropped.
//   Stage 3 — full TYCOS, run by the caller (search/allpairs.h) on the
//     survivor list.
//
// False-dismissal bound: for z-normalized windows of length n,
// ‖X − Y‖² = 2n(1 − r), so |r| ≥ T implies min(d(X, Y), d(X, −Y)) ≤
// sqrt(2n(1 − T)) = ε₁. Both sketching and projection contract distances,
// so a pair with any qualifying window in the guarantee family (grid
// start on either channel, |delay| ≤ td_max, either sign, window length
// `window`) always survives stage 1, and stage 2 evaluates that family
// exactly — the cascade is LOSSLESS for linear correlation at the
// prefilter scale. MI can exceed what Pearson sees (nonlinear, or at
// other window lengths), which is why the threshold is derived
// conservatively from σ (see mi_conservativeness) rather than equated
// with it.
//
// Determinism: window statistics, sketches, Gram accumulation, the Jacobi
// eigensolver, candidate checks, and the stage-2 scans are pure per-unit
// functions; parallel phases store into pre-sized slots and merge in
// index order, so the survivor list is bit-identical at any thread count.

#ifndef TYCOS_SEARCH_PREFILTER_H_
#define TYCOS_SEARCH_PREFILTER_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/time_series.h"

namespace tycos {

struct PrefilterParams {
  // Sketch window length n. <= 0 = auto: min(128, series length). The
  // recall guarantee is stated at this scale; windows much shorter or
  // longer are covered only insofar as their correlation bleeds into
  // length-n windows.
  int64_t window = 0;

  // Grid step between sketched window starts. <= 0 = auto: window / 2
  // (adjacent grid windows overlap by half, so no alignment can hide
  // between grid points entirely).
  int64_t hop = 0;

  // PAA segment count k_s (sketch dimensionality before projection).
  int paa_segments = 8;

  // Projection dimensionality k_b (top principal directions kept for the
  // ε-grid hash). Must be <= paa_segments. Smaller = cheaper probes,
  // looser stage-1 pruning; the stage-1 check always verifies with the
  // full k_s-dim sketch distance, so correctness is unaffected.
  int svd_dims = 2;

  // Maximum |delay| (samples) the cascade must preserve. < 0 = derive
  // from TycosParams.td_max (done by ResolveAllPairsPrefilter);
  // RunPrefilter itself requires an explicit value >= 0.
  int64_t td_max = -1;

  // Pearson threshold T in (0, 1]. When 0, T is derived as
  // mi_conservativeness × TycosParams.sigma — the normalized-MI score of
  // the search equals |r| for a perfectly linear relation, so scaling σ
  // down buys headroom for relations whose MI outruns their linear
  // correlation.
  double pearson_threshold = 0.0;

  // Fraction of σ used when pearson_threshold is 0 (see above). 1.0 =
  // prune exactly at σ (lossless for linear correlation only).
  double mi_conservativeness = 0.75;

  // Executor count for the parallel phases; same semantics as
  // TycosParams::num_threads (1 = sequential, <= 0 = hardware).
  int num_threads = 1;

  // Validates ranges against the (shared) series length.
  Status Validate(int64_t series_length) const;

  // The window and hop the cascade runs with over series of
  // `series_length` samples: the auto rules above applied where window or
  // hop is <= 0.
  int64_t ResolvedWindow(int64_t series_length) const;
  int64_t ResolvedHop(int64_t series_length) const;
};

// Resolved Pearson threshold for this prefilter configuration: the
// explicit pearson_threshold when set, otherwise
// mi_conservativeness × sigma, clamped to (0, 1].
double ResolvePearsonThreshold(const PrefilterParams& params, double sigma);

struct PrefilterStats {
  int64_t channels = 0;
  int64_t pairs_total = 0;        // C(channels, 2): candidates into stage 1
  int64_t stage1_candidates = 0;  // distinct pairs out of stage 1
  int64_t stage2_survivors = 0;   // pairs out of stage 2 (into TYCOS)
  double stage1_seconds = 0.0;
  double stage2_seconds = 0.0;
  double threshold = 0.0;  // resolved T
  double epsilon1 = 0.0;   // sqrt(2 n (1 - T)), the stage-1 radius

  // Fraction of the pair universe pruned before TYCOS.
  double PruningRate() const {
    return pairs_total > 0
               ? 1.0 - static_cast<double>(stage2_survivors) /
                           static_cast<double>(pairs_total)
               : 0.0;
  }
};

struct PrefilterSurvivor {
  int a = 0;  // channel indices, a < b
  int b = 0;
  // Strongest |Pearson r| stage 2 saw before accepting the pair (the scan
  // stops early once the threshold is crossed, so this is a lower bound
  // on the true best over the guarantee family).
  double best_pearson = 0.0;
};

struct PrefilterOutcome {
  // Survivors in canonical (a, b) order. When `stop` is set the cascade
  // was cut short by the RunContext and this list is INCOMPLETE — callers
  // must rerun the prefilter rather than treat missing pairs as pruned
  // (the durable layer never persists a stopped outcome).
  std::vector<PrefilterSurvivor> survivors;
  PrefilterStats stats;
  std::optional<StopReason> stop;

  // The survivor list as the plain pair list SearchPairList consumes.
  std::vector<std::pair<int, int>> PairList() const;
};

// Runs stages 1 + 2 over `channels` (>= 2, equal lengths, finite values)
// with the resolved Pearson threshold T in (0, 1]. Emits the prefilter.*
// obs counters (candidates in/out per stage, pairs pruned) once per run.
Result<PrefilterOutcome> RunPrefilter(const std::vector<TimeSeries>& channels,
                                      const PrefilterParams& params,
                                      double threshold, const RunContext& ctx);

}  // namespace tycos

#endif  // TYCOS_SEARCH_PREFILTER_H_
