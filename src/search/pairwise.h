// Pairwise correlation discovery: runs TYCOS over every unordered pair of
// channels and ranks the pairs — the workflow of the paper's energy
// evaluation ("we create pairwise time series from 72 plugs, and apply
// TYCOS on each time series pair"). Delay signs cover directionality, so
// each unordered pair is searched once.

#ifndef TYCOS_SEARCH_PAIRWISE_H_
#define TYCOS_SEARCH_PAIRWISE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/time_series.h"
#include "core/window_set.h"
#include "search/params.h"
#include "search/tycos.h"

namespace tycos {

struct PairwiseEntry {
  int a = 0;  // channel indices into the input vector
  int b = 0;
  WindowSet windows;
  double best_score = 0.0;  // strongest window, 0 when none found
  bool partial = false;     // this pair's search was cut short
  // Admission-gate shed level this pair ran at (src/jobs/admission.h);
  // 0 = full params. Non-zero marks a deliberately degraded search, so a
  // coarse answer produced under overload is never mistaken for a
  // full-fidelity one. Plain PairwiseSearch always runs at level 0.
  int shed_level = 0;

  int64_t window_count() const { return static_cast<int64_t>(windows.size()); }
};

// One pair's finished search: the entry plus how the inner search ended.
// This is what the durable-job layer (src/jobs/) checkpoints.
struct PairOutcome {
  PairwiseEntry entry;
  StopReason stop_reason = StopReason::kCompleted;
};

struct PairwiseResult {
  // One entry per unordered channel pair, sorted by best_score descending
  // (ties broken by window count, then by (a, b)). When the run was stopped
  // early, pairs never reached are absent and pairs in flight at the stop
  // are flagged partial; every listed window is genuinely confirmed.
  std::vector<PairwiseEntry> entries;
  int64_t pairs_searched = 0;   // entries actually run (== entries.size())
  int64_t pairs_skipped = 0;    // pairs never started due to an early stop
  bool partial = false;
  StopReason stop_reason = StopReason::kCompleted;

  // Indices into `entries` of the pairs that actually found windows.
  // Index-based on purpose: a PairwiseResult is freely copyable/movable, and
  // indices stay valid across copies where pointers into `entries` would
  // dangle.
  std::vector<size_t> Correlated() const;
};

// Runs Tycos(variant) on every pair of `channels` (all must share a
// length). Seeds are derived per pair for reproducibility. CHECKs on
// invalid input; prefer the RunContext overload where input is untrusted.
//
// When params.num_threads != 1 the sweep's units (a pair's scan, or its
// single restart climbs when params.num_restarts > 0; see SweepPairs) are
// fanned across ParallelFor's executors. Each pair owns its search (seed,
// evaluator, incremental-KSG state), units are claimed in (a, b) order, and
// entries are merged in pair order before the final sort — so the result is
// bit-identical to the sequential run at any thread count.
PairwiseResult PairwiseSearch(const std::vector<TimeSeries>& channels,
                              const TycosParams& params, TycosVariant variant,
                              uint64_t seed = 42);

// Graceful, limit-aware variant: validates the channels (>= 2, equal
// lengths, finite values) and params via Status instead of CHECKing, and
// threads `ctx` through every inner search. The deadline and cancellation
// flag are global across pairs (a stop halts every worker within one window
// evaluation and no further pairs are claimed); an evaluation budget
// applies per pair (each search keeps its own counter — see
// RunContext::SetEvaluationBudget).
Result<PairwiseResult> PairwiseSearch(const std::vector<TimeSeries>& channels,
                                      const TycosParams& params,
                                      TycosVariant variant, uint64_t seed,
                                      const RunContext& ctx);

// --- Building blocks shared with the durable-job layer (src/jobs/) ---
//
// PairwiseSearch is exactly: ValidatePairwiseChannels, then SweepPairs over
// every (a, b) with a < b. The durable runner sweeps the
// not-yet-checkpointed subset with the same core plus per-pair hooks, which
// is what makes a resumed run bit-identical to an uninterrupted one.

// The channel-level validation PairwiseSearch performs (>= 2 channels,
// equal lengths, finite values).
Status ValidatePairwiseChannels(const std::vector<TimeSeries>& channels);

// Every unordered channel pair (a, b), a < b, in (a, b) order: the
// universe PairwiseSearch sweeps.
std::vector<std::pair<int, int>> AllChannelPairs(int num_channels);

// The per-pair seed stream. Kept stable across releases so stored results
// (and checkpoints) stay reproducible.
uint64_t PairwiseSeed(uint64_t seed, int a, int b);

// Runs one pair's search: Tycos(variant) on (channels[a], channels[b]) with
// the pair's derived seed, threading `ctx` through the inner search. The
// caller must have validated channels and params; a/b must index into
// channels with a < b. Deterministic for a fixed (channels, params, variant,
// seed) — independent of which other pairs ran before it.
Result<PairOutcome> SearchPair(const std::vector<TimeSeries>& channels, int a,
                               int b, const TycosParams& params,
                               TycosVariant variant, uint64_t seed,
                               const RunContext& ctx);

// The result ordering every sweep applies: best_score descending, ties by
// window count, then (a, b).
void SortPairwiseEntries(std::vector<PairwiseEntry>* entries);

// How admit lets a pair into a sweep (jobs::Admit's answer plus the
// runner's watchdog slice); each of its units runs under these limits.
struct PairAdmission {
  // May turn restarts off (the pair's scan then runs in its unit 0), but
  // must not otherwise change num_restarts.
  TycosParams params;
  int shed_level = 0;             // stamped into the pair's entry
  int64_t evaluation_budget = 0;  // per unit; 0 = none
  double time_slice_s = 0.0;      // per-unit deadline, seconds; 0 = none
};

// Optional per-pair hooks (the durable runner's admission, watchdog and
// checkpointing). They run on the sweep's workers: concurrently for
// different pairs and, with restarts, for different units of one pair.
struct PairSweepHooks {
  // Once per pair, before its units run: nullopt refuses the pair (it is
  // never run, reported or finished). Unset: the sweep's params, level 0,
  // the context's own evaluation budget and no slice.
  std::function<std::optional<PairAdmission>(int64_t pair)> admit;
  // After each unit ran, with how its search ended (an error when the
  // pair's engine could not be built or the search failed); returns
  // whether the unit's output stands (false drops the pair unreported). A
  // global stop needs no report: the sweep's own poll of ctx ends it.
  // Unset: an error ends the sweep.
  std::function<bool(int64_t pair, int unit, const Result<StopReason>& end)>
      unit_done;
  // Once per admitted pair after its last unit, with its outcome (nullptr
  // if dropped) before the entry is reported. A pair a stop left with
  // unclaimed units is never finished.
  std::function<void(int64_t pair, const PairOutcome* outcome)> finish;
};

// The one pair sweep behind PairwiseSearch, SearchPairList and the
// durable runner: a single prefix-claim ParallelFor over
// pairs.size() × max(1, num_restarts) units; unit u is unit u % U of pair
// u / U. Each admitted pair builds its engine once under std::call_once
// and runs Tycos::RunUnit for each of the engine's num_units() (a fresh
// evaluator stack and RNG per call, so a unit is a pure function of the
// pair's seed and its index); the pair's last unit to end merges them with
// Tycos::MergeUnits. The pair's stop_reason is a timing-dependent stop
// (deadline, cancel) if any unit hit one. Sweeps never nest loops: pairs
// run with num_threads = 1.
//
// A pair is reported once all of its units ran and kept their output; a
// stop that leaves some unclaimed drops it as skipped, so `pairs` is the
// universe pairs_skipped counts against. With no unit_done hook the first
// unit error in pair order is returned. `pairwise.pairs_searched` counts
// each reported pair once. The caller validates channels, params, pairs.
Result<PairwiseResult> SweepPairs(
    const std::vector<TimeSeries>& channels,
    const std::vector<std::pair<int, int>>& pairs, const TycosParams& params,
    TycosVariant variant, uint64_t seed, const RunContext& ctx,
    const PairSweepHooks& hooks = {});

// PairwiseSearch over an EXPLICIT pair universe instead of the full (a, b)
// enumeration — the all-pairs prefilter path (search/allpairs.h) searches
// survivors only. `pairs` must be strictly (a, b)-sorted, a < b, indices
// in range (InvalidArgument otherwise). Semantics match the ctx overload
// of PairwiseSearch with `pairs` as the universe: pairs_skipped counts
// list entries not reached before a stop; searching a subset is
// bit-identical per pair to searching the same pair in a full sweep
// (PairwiseSeed depends only on (seed, a, b)).
Result<PairwiseResult> SearchPairList(
    const std::vector<TimeSeries>& channels,
    const std::vector<std::pair<int, int>>& pairs, const TycosParams& params,
    TycosVariant variant, uint64_t seed, const RunContext& ctx);

}  // namespace tycos

#endif  // TYCOS_SEARCH_PAIRWISE_H_
