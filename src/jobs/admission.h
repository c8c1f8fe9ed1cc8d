// Overload shedding: Admit, the one memory/queue-depth admission ladder of
// the durable runner (per pair) and the service (per request), degrades
// work before refusing it. Each unit of work is admitted at a *shed level*;
// the ladder trades result thoroughness for resource headroom one rung at
// a time:
//
//   level 0  full params
//   level 1  degraded search (no multi-restart fan-in, shallower
//            neighborhood exploration), evaluation budget halved
//   level 2  level 1 plus a tighter idle cutoff and shorter LAHC history,
//            evaluation budget quartered
//   level 3  refuse: the unit is not run (a durable pair stays
//            un-checkpointed, so a later resume picks it up)
//
// The level each unit ran at is recorded in its result and checkpoint
// record, so degraded answers are never mistaken for full-fidelity ones.
// Probing is behind the LoadProbe interface: production uses the process
// RSS (obs::ProcessRssBytes) and live queue depth; tests inject a scripted
// probe to drive the ladder deterministically.

#ifndef TYCOS_JOBS_ADMISSION_H_
#define TYCOS_JOBS_ADMISSION_H_

#include <cstdint>
#include <optional>

#include "common/status.h"
#include "search/pairwise.h"
#include "search/params.h"

namespace tycos {
namespace jobs {

// A point-in-time load reading.
struct LoadSample {
  int64_t rss_bytes = 0;    // process resident set size, 0 = unknown
  int64_t queue_depth = 0;  // units admitted but not yet finished
};

class LoadProbe {
 public:
  virtual ~LoadProbe() = default;
  virtual LoadSample Sample() = 0;

  // The process-wide default: RSS from obs::ProcessRssBytes, queue depth 0
  // (the runner overlays its own in-flight count).
  static LoadProbe* System();
};

// Thresholds for the ladder; 0 disables the corresponding axis. Crossing a
// soft threshold degrades (level 1, then 2 past the midpoint between soft
// and hard); crossing a hard threshold refuses (level 3).
struct ShedPolicy {
  int64_t rss_soft_bytes = 0;
  int64_t rss_hard_bytes = 0;
  int64_t queue_soft = 0;
  int64_t queue_hard = 0;

  bool enabled() const {
    return rss_soft_bytes > 0 || rss_hard_bytes > 0 || queue_soft > 0 ||
           queue_hard > 0;
  }

  // Rejects self-contradictory ladders before they silently misbehave:
  // negative bounds, or soft > hard on an axis where both are set (the
  // degradation band would vanish and load would jump straight from full
  // fidelity to refusal). soft == hard is allowed — an intentional
  // no-degrade cliff. Runners call this when they validate their options,
  // before the first Admit.
  Status Validate() const;
};

// The shed level (0..3) the given load maps to under `policy`. The worst
// (highest) level over the enabled axes wins.
int ShedLevel(const ShedPolicy& policy, const LoadSample& sample);

// Applies shed level `level` to a parameter set: the coarser-params rungs
// of the ladder above. Level 0 returns `params` unchanged; level 3 is the
// caller's job (refuse before running). Deterministic — the same (params,
// level) always degrades identically, so a checkpointed shed pair replays
// bit-identically.
TycosParams DegradeParams(const TycosParams& params, int level);

// The evaluation-budget scale for a shed level: 1, 1/2, 1/4 for levels
// 0, 1, 2.
double ShedBudgetScale(int level);

// The ladder for one unit of work. An enabled policy samples `probe`
// (nullptr = LoadProbe::System()) with the caller's `in_flight` count
// added to its queue depth, sets the process.rss_bytes gauge and picks the
// level; a disabled one never samples. nullopt refuses (level 3).
// Otherwise: DegradeParams at the level, and a budget of
// ShedBudgetScale(level) × the tighter of the runner's `own_budget` and
// the caller's `outer_budget` (0 = unset; floored at 1). The runner sets
// the watchdog slice.
std::optional<PairAdmission> Admit(const ShedPolicy& policy, LoadProbe* probe,
                                   int64_t in_flight, const TycosParams& params,
                                   int64_t own_budget, int64_t outer_budget);

}  // namespace jobs
}  // namespace tycos

#endif  // TYCOS_JOBS_ADMISSION_H_
