// TYCOS: the LAHC-based multi-scale time-delay correlation search
// (Algorithms 1 and 2). The four paper variants are selected by TycosVariant:
//
//   kL    — plain LAHC search (Algorithm 1)
//   kLN   — + noise theory (initial noise pruning & subsequent detection)
//   kLM   — + incremental MI computation (Section 7)
//   kLMN  — both optimizations (the flagship configuration)

#ifndef TYCOS_SEARCH_TYCOS_H_
#define TYCOS_SEARCH_TYCOS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/time_series.h"
#include "core/window_set.h"
#include "search/evaluator.h"
#include "search/lahc.h"
#include "search/noise.h"
#include "search/params.h"

namespace tycos {

enum class TycosVariant { kL, kLN, kLM, kLMN };

const char* TycosVariantName(TycosVariant v);

// Per-run work summary. Each search unit tallies its climbs and its own
// evaluator stack in plain integers, and Run(ctx) sums the units in unit
// order, so the counters cover this engine alone (never another engine
// running beside it) and are bit-identical at any thread count. The obs
// metrics registry (src/obs/metrics.h) receives the same counters, which
// units publish at climb and unit boundaries.
struct TycosStats {
  int64_t climbs = 0;            // local searches (restarts included)
  int64_t accepted_moves = 0;
  int64_t rejected_moves = 0;
  int64_t noise_blocked = 0;     // directions masked by the noise test
  int64_t mi_evaluations = 0;    // estimator invocations (cache misses)
  int64_t cache_hits = 0;
  int64_t windows_found = 0;
  int64_t non_finite_scores = 0;   // evaluator outputs sanitized to 0
  int64_t degenerate_windows = 0;  // constant/hostile windows scored 0
  StopReason stop_reason = StopReason::kCompleted;  // why the last Run ended
};

// The result of a limit-aware run. When a deadline, cancellation, or budget
// stops the search early, `windows` is the best-so-far result — still a
// valid non-nested, σ-respecting WindowSet — and `partial` is true.
struct SearchOutcome {
  WindowSet windows;
  bool partial = false;
  StopReason stop_reason = StopReason::kCompleted;
};

class Tycos {
 public:
  // Graceful construction: validates params against the pair and both
  // series for finiteness, returning InvalidArgument instead of crashing on
  // hostile input.
  static Result<std::unique_ptr<Tycos>> Create(const SeriesPair& pair,
                                               const TycosParams& params,
                                               TycosVariant variant,
                                               uint64_t seed = 42);

  // `pair` is copied (and jittered when params.tie_jitter > 0), so the
  // engine is self-contained. A thin CHECKed wrapper over the Create
  // validation: invalid params or non-finite series abort. Prefer Create()
  // anywhere input is not trusted.
  Tycos(const SeriesPair& pair, const TycosParams& params,
        TycosVariant variant, uint64_t seed = 42);

  Tycos(const Tycos&) = delete;
  Tycos& operator=(const Tycos&) = delete;

  // Runs the search over the whole pair and returns the result set S of
  // non-nested windows scoring >= σ (or the top-K list when params.top_k is
  // set). The engine keeps no run state, so calling Run() again replays
  // the same result.
  WindowSet Run();

  // Limit-aware variant: polls `ctx` at climb and neighbourhood boundaries.
  // An expired deadline / cancel / exhausted budget yields the best-so-far
  // window set flagged partial, with the stop reason recorded both in the
  // outcome and in stats().stop_reason.
  //
  // The search is num_units() units fanned across params.num_threads
  // executors and merged in unit order, so the outcome (windows *and*
  // stats) is bit-identical at any thread count. The evaluation budget
  // applies per unit; deadline/cancel stop every unit.
  Result<SearchOutcome> Run(const RunContext& ctx);

  const TycosStats& stats() const { return stats_; }
  const TycosParams& params() const { return params_; }
  TycosVariant variant() const { return variant_; }

  // Test-only: every unit replaces its evaluator stack with
  // `wrap(stack)`, letting tests splice in a FaultInjector between the
  // search and the estimators (see search/fault_injector.h). The wrapper
  // must keep the stack it wraps. Wrapped stacks live until the engine
  // does, so a test can read its wrapper after Run.
  using EvaluatorWrapper = std::function<std::unique_ptr<WindowEvaluator>(
      std::unique_ptr<WindowEvaluator>)>;
  void WrapEvaluatorForTest(const EvaluatorWrapper& wrap);

  // --- Search units: the one execution body of Run(ctx) and SweepPairs ---
  //
  // Without restarts a search is one unit: Algorithm 1's left-to-right
  // scan, seeded with the engine seed. With params.num_restarts = U > 0 it
  // is U units; unit r is one climb from the stratified cursor r·usable/U
  // on RNG stream DeriveStreamSeed(seed, r).
  int num_units() const { return std::max(1, params_.num_restarts); }

  // Everything one unit produces. Written only by the executor that ran
  // the unit and read only after the scheduler's join / countdown.
  struct UnitResult {
    std::vector<Window> windows;  // each climb's best window, in climb order
    std::optional<StopReason> stop;
    TycosStats work;  // counters only; stop_reason and windows_found unset
  };

  // Runs unit `u` under `ctx`. The unit builds its own evaluator stack and
  // RNG and publishes its work to the obs registry before returning, so
  // this is const, safe to call concurrently for distinct units, and
  // replays bit for bit when called again. Units of one engine share only
  // its immutable state (pair copy, params, seed).
  UnitResult RunUnit(int u, const RunContext& ctx) const;

  // Folds units [0, claimed) in unit order — never completion order — into
  // the result set. The stop reason is the first one a unit recorded, else
  // `loop_stop` (a stop only the claim-level poll saw) when it left units
  // unclaimed.
  SearchOutcome MergeUnits(const std::vector<UnitResult>& units,
                           int64_t claimed,
                           std::optional<StopReason> loop_stop) const;

 private:
  struct Validated {};  // tag: inputs already vetted by the caller

  Tycos(Validated, const SeriesPair& pair, const TycosParams& params,
        TycosVariant variant, uint64_t seed);

  // Plain-int tallies of one climb. Climb() only ever touches these locals;
  // FlushClimbCounters (tycos.cc) publishes them to the obs registry once
  // per climb, which is what keeps the LAHC loop atomic-free.
  struct ClimbCounters {
    int64_t accepted_moves = 0;
    int64_t rejected_moves = 0;
    int64_t noise_blocked = 0;
    int64_t non_finite_scores = 0;
  };

  // The per-climb execution state a climb reads and mutates: the unit's
  // evaluator stack and RNG plus a fresh counter block per climb.
  struct ClimbContext {
    WindowEvaluator* evaluator;
    Rng* rng;
    ClimbCounters* counters;
  };

  // Publishes one finished climb to the obs registry: tycos.climbs, the
  // tycos.* move/noise/score counters, and the per-climb acceptance-ratio
  // histogram. The ratio is a pure function of the climb's local tallies,
  // so the histogram stays thread-count-invariant.
  static void FlushClimbCounters(const ClimbCounters& c);

  // The RNG seed of unit `u`.
  uint64_t UnitSeed(int u) const;

  // One LAHC climb from w0; returns the best window seen. Sets `*stop` and
  // returns early (best-so-far) when `ctx` fires.
  Window Climb(const ClimbContext& cc, const Window& w0, const RunContext& ctx,
               std::optional<StopReason>* stop) const;

  // Evaluator score with the hostile-output guard: non-finite scores are
  // recorded and sanitized to 0 so they cannot poison LAHC comparisons or
  // the result set.
  double SafeScore(const ClimbContext& cc, const Window& w) const;

  // Feasible neighbours of w on the level-ℓ shell (offsets in
  // {-ℓδ, 0, +ℓδ} per axis, excluding the identity), honoring the noise
  // direction mask. Sorted by (delay, start, end) so the incremental
  // estimator sees maximal overlap between consecutive evaluations.
  std::vector<Window> GenerateNeighbors(const Window& w, int level,
                                        const DirectionMask& mask) const;

  bool use_noise() const {
    return variant_ == TycosVariant::kLN || variant_ == TycosVariant::kLMN;
  }
  bool use_incremental() const {
    return variant_ == TycosVariant::kLM || variant_ == TycosVariant::kLMN;
  }

  SeriesPair pair_;  // local (possibly jittered) copy
  TycosParams params_;
  TycosVariant variant_;
  uint64_t seed_;

  EvaluatorWrapper test_wrapper_;
  // The stacks test_wrapper_ wrapped, by unit; slot u is written only by
  // unit u.
  mutable std::vector<std::unique_ptr<WindowEvaluator>> test_stacks_;

  TycosStats stats_;
};

}  // namespace tycos

#endif  // TYCOS_SEARCH_TYCOS_H_
