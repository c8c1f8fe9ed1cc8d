// ParallelFor: the one parallel primitive of the search engine — a
// RunContext-aware prefix-claim loop (pairwise fan-out, multi-restart
// climbs, the prefilter's stages). Each call starts its own helper threads
// and joins them before it returns; there is no pool to build or share.
//
// Determinism contract: ParallelFor claims indices in order from a shared
// counter, so the set of executed indices is always a prefix [0, claimed).
// Callers that store per-index results into pre-sized slots and merge them
// in index order after the loop get results that are bit-identical at any
// thread count. Deadline / cancellation stops propagate to every executor:
// once the RunContext fires (or a body reports a stop), no new indices are
// claimed; indices already claimed always run to completion, so a slot is
// never left torn.

#ifndef TYCOS_COMMON_PARALLEL_FOR_H_
#define TYCOS_COMMON_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>
#include <optional>

#include "common/run_context.h"

namespace tycos {

// Maps a user-facing thread-count request to an executor count:
// >= 1 is taken as given, <= 0 means one executor per hardware thread.
int ResolveThreadCount(int requested);

// Executor width for a ParallelFor nested INSIDE another parallel worker.
// The one nested site is the service (service/server.cc): each scheduler
// worker runs one engine, whose multi-restart loop is sized with this;
// pair sweeps never nest (SweepPairs). `requested` resolves as
// ResolveThreadCount, then outer_executors × inner width is capped at the
// hardware thread count (at most max(1, hw / outer_executors) inner
// executors). Results are unaffected, only wall-clock. See DESIGN.md
// "Threading model".
int ResolveNestedThreadCount(int requested, int outer_executors);

struct ForStatus {
  int64_t claimed = 0;  // indices executed — always the prefix [0, claimed)
  std::optional<StopReason> stop;  // first stop observed, if any
};

// Runs body(i) for i in [0, n) on min(executors, n) executors: the calling
// thread plus min(executors, n) - 1 helper threads started for this call.
// One executor (or fewer) runs every index inline on the caller — the exact
// sequential reference path. Before claiming each index, every executor
// polls `ctx`; a deadline / cancellation there — or a StopReason returned by
// a body — halts all further claims. The first stop observed is reported
// back. Bodies for distinct indices run concurrently and must not share
// mutable state. The helpers are joined before ParallelFor returns, so all
// body effects are visible to the caller on return; a body may run a
// ParallelFor of its own. Bodies must not throw: an exception escaping a
// body, on any executor, ends the program.
ForStatus ParallelFor(
    int executors, int64_t n, const RunContext& ctx,
    const std::function<std::optional<StopReason>(int64_t)>& body);

}  // namespace tycos

#endif  // TYCOS_COMMON_PARALLEL_FOR_H_
