// Durable pairwise search: PairwiseSearch's sweep (SweepPairs) with
// checkpoint, watchdog, and admission hooks, so a multi-million-pair
// discovery run survives crashes, pathological pairs, and overload.
//
//   * Checkpointing — every finished pair is appended to a crash-safe
//     checkpoint (checkpoint.h); ResumePairwiseSearch skips pairs the
//     checkpoint already holds. Because each pair's search depends only on
//     its own derived seed (PairwiseSeed), a resumed run's final result is
//     bit-identical to an uninterrupted one, at any interrupt point and
//     thread count.
//   * Failure isolation — each unit of the sweep (a pair, or one restart
//     climb) runs once, under a watchdog time slice carved from the global
//     RunContext deadline via parent chaining, so one pathological pair
//     cannot starve the rest. A unit that overruns its slice, or whose
//     search returns an error, fails its pair: the pair is recorded in
//     `failures`, excluded from the result, left un-checkpointed, and
//     rerun by the next resume. The rest of the run goes on.
//   * Shedding — the admission ladder (admission.h) degrades params and
//     budget under memory/queue pressure before refusing work; the level
//     is recorded in each entry and checkpoint record.
//
// Only deterministic stops are checkpointed: a pair cut short by a
// deadline or cancellation reruns on resume, while a pair that exhausted
// its (deterministic) evaluation budget is final and persists.

#ifndef TYCOS_JOBS_DURABLE_PAIRWISE_H_
#define TYCOS_JOBS_DURABLE_PAIRWISE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/time_series.h"
#include "jobs/admission.h"
#include "search/pairwise.h"
#include "search/params.h"
#include "search/prefilter.h"
#include "search/tycos.h"

namespace tycos {
namespace jobs {

struct DurableJobOptions {
  // Where the checkpoint lives. Created when absent; checked against this
  // run's identity (checkpoint.h) and appended to when present. Required.
  std::string checkpoint_path;

  // fsync after every record: survives power loss, costs a disk round trip
  // per pair. Off by default — plain process death (SIGKILL, OOM) never
  // loses flushed records.
  bool fsync_each_record = false;

  // Watchdog: each unit's deadline, seconds (0 = none). The slice is a
  // child of the global RunContext, so the global deadline still wins. A
  // pair with a unit that exceeds its slice is isolated as a per-pair
  // failure — recorded in `failures` with no entry — and, being
  // un-checkpointed, reruns on a later resume rather than starving this
  // run.
  double pair_time_slice_s = 0.0;

  // Per-unit evaluation budget (0 = none): per pair, or per climb with
  // restarts (the plain sweep's rule). A budget on the global RunContext
  // also applies per unit, as in PairwiseSearch; the tighter of the two
  // wins, scaled by a shed pair's level (jobs::Admit, as in the service).
  int64_t pair_evaluation_budget = 0;

  // Voluntary pause: stop after this many newly searched pairs (0 =
  // unlimited), reporting StopReason::kPaused. Everything searched so far
  // is checkpointed; calling again continues. This is how an operator
  // timeslices a big job across maintenance windows.
  int64_t max_pairs_this_run = 0;

  // Overload shedding thresholds; disabled (never sheds) by default.
  ShedPolicy shed;

  // Load readings for the shed ladder; nullptr = LoadProbe::System().
  LoadProbe* probe = nullptr;

  // InvalidArgument naming the field for a missing checkpoint_path, a
  // negative or NaN pair_time_slice_s, a negative pair_evaluation_budget or
  // max_pairs_this_run, or an invalid shed ladder. The durable runners
  // call this before touching the checkpoint.
  Status Validate() const;
};

// A pair whose search failed or overran its watchdog slice, isolated from
// the rest of the run.
struct PairFailure {
  int a = 0;
  int b = 0;
  Status status = Status::Ok();
};

struct DurableJobStats {
  int64_t pairs_total = 0;      // all unordered pairs of the input
  int64_t pairs_resumed = 0;    // taken finished from the checkpoint
  int64_t pairs_run = 0;        // searched by this invocation
  int64_t pairs_failed = 0;     // isolated failures (see `failures`)
  int64_t pairs_refused = 0;    // shed at level 3 (left for a later resume)
  int64_t pairs_degraded = 0;   // run at shed level 1 or 2
  int64_t watchdog_timeouts = 0;  // units cut by their watchdog slice
  int64_t checkpoint_records_written = 0;
  int64_t checkpoint_bytes_written = 0;
  // First checkpoint-append failure, if any: the run kept computing but
  // durability degraded from that point on (later pairs rerun on resume).
  Status checkpoint_error = Status::Ok();
  std::vector<PairFailure> failures;  // in pair order
};

struct DurableOutcome {
  // Same shape and ordering as PairwiseSearch's result. After a run with
  // no failures/refusals completed every pair, this is bit-identical to
  // the uninterrupted PairwiseSearch result. stop_reason kPaused means
  // "checkpointed and resumable", with pairs_skipped counting what's left.
  PairwiseResult result;
  DurableJobStats stats;
};

// Runs (or resumes) a durable pairwise search. Validates input like
// PairwiseSearch; rejects a checkpoint written by a different
// (params, variant, seed) or for different data or shape with
// InvalidArgument, and a corrupt checkpoint with IoError. See the file
// comment for semantics.
Result<DurableOutcome> ResumePairwiseSearch(
    const std::vector<TimeSeries>& channels, const TycosParams& params,
    TycosVariant variant, uint64_t seed, const RunContext& ctx,
    const DurableJobOptions& options);

// --- Durable all-pairs discovery (prefilter cascade + durable search) ----

struct AllPairsJobOptions {
  // Checkpoint/watchdog/shedding knobs, exactly as for
  // ResumePairwiseSearch. checkpoint_path is required; the survivor list
  // is persisted next to it at <checkpoint_path>.survivors.
  DurableJobOptions durable;
  // Cascade knobs; auto fields resolve against (params, series length)
  // via ResolveAllPairsPrefilter.
  PrefilterParams prefilter;
};

struct AllPairsJobOutcome {
  // Durable search over the survivor universe. stats.pairs_total and
  // result.pairs_skipped count SURVIVORS — pruned pairs live only in
  // `pairs_pruned`, so "skipped" always means "resumable work left".
  DurableOutcome durable;
  // Cascade telemetry; all-zero (except pairs_total) when the survivor
  // list was loaded from disk instead of recomputed.
  PrefilterStats prefilter;
  // The survivor universe the durable job ran over, (a, b)-sorted.
  std::vector<std::pair<int, int>> survivors;
  bool survivors_resumed = false;  // loaded from the persisted survivor list
  int64_t pairs_pruned = 0;        // full C(n,2) universe − survivors
  // Set when a survivor list was present but rejected — truncated,
  // bit-flipped, or written by a different run (params, data, seed, shape
  // or prefilter config changed). The list is fully derived data, so
  // rejection is never fatal: the cascade was recomputed fresh and the bad
  // file overwritten. The typed rejection is kept here (and counted in
  // jobs.survivors_rejected) so operators can see why resume work was
  // redone.
  Status survivors_rejected = Status::Ok();
};

// Durable all-pairs discovery: runs the prefilter cascade (or loads its
// persisted survivor list), then resumes the durable pairwise search over
// the survivors only. A resumed invocation therefore skips both pruned
// pairs (survivor list on disk) and finished pairs (checkpoint records).
// The survivor file is bound to (params, variant, seed, prefilter config,
// data fingerprint, shape); a mismatched, truncated, or corrupt file is
// rejected with a typed Status (never a crash, never silently an empty
// universe), recorded in AllPairsJobOutcome::survivors_rejected, and the
// cascade is recomputed fresh — the list is derived data, so falling back
// loses only prefilter work, never results. A cascade cut short by the
// RunContext is NEVER persisted — the run returns with every survivor
// unknown (result.partial, nothing checkpointed) and a later call with a
// fresh context recomputes it. Checkpoint records for pairs outside the
// survivor universe (e.g. written by a plain full-sweep run over the same
// config) are ignored, not errors.
Result<AllPairsJobOutcome> ResumeAllPairsSearch(
    const std::vector<TimeSeries>& channels, const TycosParams& params,
    TycosVariant variant, uint64_t seed, const RunContext& ctx,
    const AllPairsJobOptions& options);

}  // namespace jobs
}  // namespace tycos

#endif  // TYCOS_JOBS_DURABLE_PAIRWISE_H_
