// Per-unit failure supervision for durable jobs: classify errors as
// transient or permanent, retry transient ones with exponential backoff and
// deterministic jitter, and give every attempt a watchdog time slice carved
// from the global RunContext deadline. The supervisor is generic over the
// work unit (a std::function returning Status) so it is testable without
// running a real search; the durable pairwise runner (durable_pairwise.h)
// wraps each pair's search in it.

#ifndef TYCOS_JOBS_SUPERVISOR_H_
#define TYCOS_JOBS_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <optional>

#include "common/run_context.h"
#include "common/status.h"

namespace tycos {
namespace jobs {

// Whether a failed attempt is worth retrying. Transient codes (I/O
// hiccups, shed/overload refusals, watchdog expiries) heal under retry;
// everything else — invalid input, internal invariant failures — will fail
// identically every time and is isolated to its unit immediately.
enum class ErrorClass { kTransient, kPermanent };

// "transient" / "permanent".
const char* ErrorClassName(ErrorClass c);

ErrorClass ClassifyStatus(const Status& status);

// Bounded exponential backoff with multiplicative jitter. All knobs in
// seconds. The jitter is a pure function of (seed, unit, attempt) — see
// BackoffSeconds — so a retry schedule is reproducible across runs and
// thread counts while still decorrelating units that fail together.
struct RetryPolicy {
  int max_attempts = 3;           // total attempts, first one included
  double initial_backoff_s = 0.02;
  double backoff_multiplier = 2.0;
  double max_backoff_s = 2.0;
  double jitter_ratio = 0.25;     // backoff scaled by 1 ± jitter_ratio

  // InvalidArgument naming the field unless max_attempts >= 1, both
  // backoffs are finite and >= 0, backoff_multiplier is finite and >= 1,
  // and jitter_ratio is in [0, 1] — the bounds under which every wait is
  // finite, non-negative and non-shrinking before the cap.
  Status Validate() const;
};

// The wait before attempt `attempt + 1` (attempt is 1-based, so the wait
// after the first failure is BackoffSeconds(policy, seed, unit, 1)).
double BackoffSeconds(const RetryPolicy& policy, uint64_t seed, int64_t unit,
                      int attempt);

// How the supervisor waits out a backoff. The default implementation waits
// on a condition variable in short slices, polling the RunContext so a
// cancellation or deadline interrupts the wait promptly (never a blind
// timed sleep). Tests inject a recording fake to run retry schedules in
// zero wall time.
class BackoffSleeper {
 public:
  virtual ~BackoffSleeper() = default;

  // Waits `seconds`, or less if `ctx` fires; returns the stop reason when
  // interrupted, nullopt after a full wait.
  virtual std::optional<StopReason> Sleep(double seconds,
                                          const RunContext& ctx) = 0;

  // The process-wide default (real) sleeper.
  static BackoffSleeper* Default();
};

// One unit's supervision summary.
struct SuperviseResult {
  Status final_status = Status::Ok();  // Ok when some attempt succeeded
  int attempts = 0;                    // attempts actually made
  int transient_failures = 0;          // failures that were retried
  double backoff_total_s = 0.0;        // backoff requested (not wall time)
  // Set when the loop ended because the global context fired rather than
  // because the unit succeeded or exhausted its retries.
  std::optional<StopReason> stopped;
};

// Runs `attempt(n)` (n = 1-based attempt number) until it returns Ok, a
// permanent error, the retry budget is exhausted, or `ctx` fires. Backoff
// waits happen between transient failures and are themselves interruptible
// by `ctx`. `seed`/`unit` only feed the jitter.
SuperviseResult Supervise(const RetryPolicy& policy, uint64_t seed,
                          int64_t unit, const RunContext& ctx,
                          BackoffSleeper* sleeper,
                          const std::function<Status(int)>& attempt);

}  // namespace jobs
}  // namespace tycos

#endif  // TYCOS_JOBS_SUPERVISOR_H_
