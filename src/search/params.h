// TycosParams: the full parameter set of the TYCOS problem and search
// (Section 8.2): user parameters σ, s_min, s_max, td_max; hyper-parameter ε
// (as a ratio of σ); and the LAHC/estimator knobs.

#ifndef TYCOS_SEARCH_PARAMS_H_
#define TYCOS_SEARCH_PARAMS_H_

#include <cstdint>

#include "common/status.h"
#include "core/time_series.h"
#include "mi/ksg.h"

namespace tycos {

struct TycosParams {
  // --- Problem parameters (user-set) ---

  // Correlation threshold σ on the normalized MI in [0, 1]. A window enters
  // the result set iff its score >= sigma. (With the default
  // correlation-coefficient normalization and small-sample penalty, strong
  // relations score > 0.7 while maximized noise stays below ~0.4.)
  double sigma = 0.5;

  // Minimum / maximum window size (samples) and maximum |delay| (samples).
  int64_t s_min = 24;
  int64_t s_max = 256;
  int64_t td_max = 16;

  // --- Noise theory hyper-parameter ---

  // ε = epsilon_ratio * sigma. The paper's empirical sweet spot is 0.25
  // (Fig. 11/12); windows scoring below ε are "noise" candidates.
  double epsilon_ratio = 0.25;

  // --- Search knobs ---

  // Neighbourhood step δ (Definition 5.1).
  int64_t delta = 4;

  // Delay-grid step used by the initial noise pruning when probing block
  // placements over τ ∈ [-td_max, td_max] (TYCOS_LN/LMN only). 0 = auto
  // (exhaustive, step 1). Finer grids find delayed correlations on weakly
  // autocorrelated data at a higher initial-scan cost.
  int64_t initial_delay_step = 0;

  // LAHC history length |L_h| and the max-idle stopping condition
  // T_maxIdle (Algorithm 1).
  int history_length = 5;
  int max_idle = 10;

  // Cap on the neighbourhood level ℓ (the shell at level ℓ probes offsets
  // ±ℓδ on each axis). Larger values let an idle climb look further away.
  int max_neighborhood_level = 8;

  // Top-K filtering (Section 6.3.2): when > 0, σ is maintained dynamically
  // as the K-th best score found so far and the result is the top-K list.
  int top_k = 0;

  // --- Parallel execution ---

  // Executor count for the parallel fan-outs (PairwiseSearch over its
  // pairs' units, Tycos::Run over restart climbs). 1 = fully sequential
  // (the reference path); <= 0 = one executor per hardware thread. Results
  // are bit-identical at every thread count: work units are claimed in
  // index order and merged in index order, never in completion order.
  int num_threads = 1;

  // A search runs as max(1, num_restarts) units (Tycos::RunUnit), each with
  // its own evaluator stack and RNG. 0 keeps Algorithm 1's sequential scan
  // as the one unit, seeded with the engine seed. When > 0, unit r instead
  // climbs once from the stratified start r·usable/num_restarts on RNG
  // stream DeriveStreamSeed(seed, r); climbs merge into the result set in
  // unit order. Under a RunContext, the evaluation budget applies per unit
  // (like the per-pair budget in PairwiseSearch); deadline/cancel stop all
  // units.
  int num_restarts = 0;

  // Memoize window scores within one search (the same window is often
  // re-generated by overlapping shells).
  bool cache_evaluations = true;

  // --- Estimator ---

  // KSG nearest-neighbour count. Every window's kNN queries run brute
  // force (KsgMi's KnnBackend::kBrute and the incremental estimator's
  // per-point search); every backend returns identical extents.
  int k = 4;

  // Jitter applied once to the series copies before searching (tie breaking
  // for discrete-valued data); 0 disables.
  double tie_jitter = 0.0;

  // How raw MI maps to the [0, 1] score compared against sigma.
  MiNormalization normalization = MiNormalization::kCorrelationCoefficient;

  // Small-sample significance penalty (see kDefaultSmallSamplePenalty):
  // raw MI is debiased by penalty/sqrt(m) before normalization so that a
  // maximizing search cannot surface short pure-noise windows.
  double small_sample_penalty = kDefaultSmallSamplePenalty;

  // Derived: the noise threshold ε.
  double epsilon() const { return epsilon_ratio * sigma; }

  // Validates ranges (s_min >= k + 2, s_min <= s_max, 0 <= ε < σ, ...).
  Status Validate(int64_t series_length) const;

  // The length-independent subset of Validate: everything except the
  // s_max/td_max vs series-length coupling. Used by drivers (streaming)
  // that must vet a configuration before any data exists.
  Status ValidateShape() const;
};

// The input contract of a pair search (Tycos, BruteForceSearch): `params`
// valid for the pair's length and both series free of non-finite samples.
Status ValidateForSearch(const SeriesPair& pair, const TycosParams& params);

// The pair a search runs on: `pair` itself, or a copy with
// params.tie_jitter applied once to each series (salt 1 for x, 2 for y).
SeriesPair PrepareForSearch(const SeriesPair& pair, const TycosParams& params);

}  // namespace tycos

#endif  // TYCOS_SEARCH_PARAMS_H_
