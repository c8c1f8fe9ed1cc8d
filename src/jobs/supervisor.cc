#include "jobs/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "common/annotations.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace tycos {
namespace jobs {

const char* ErrorClassName(ErrorClass c) {
  switch (c) {
    case ErrorClass::kTransient:
      return "transient";
    case ErrorClass::kPermanent:
      return "permanent";
  }
  return "unknown";
}

ErrorClass ClassifyStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
    case StatusCode::kIoError:
      return ErrorClass::kTransient;
    case StatusCode::kOk:
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kInternal:
      return ErrorClass::kPermanent;
  }
  return ErrorClass::kPermanent;
}

Status RetryPolicy::Validate() const {
  if (max_attempts < 1) {
    return Status::InvalidArgument(
        "RetryPolicy.max_attempts must be >= 1, got " +
        std::to_string(max_attempts));
  }
  const auto bad = [](const std::string& field, double value,
                      const char* want) {
    return Status::InvalidArgument("RetryPolicy." + field + " must be " +
                                   want + ", got " + std::to_string(value));
  };
  if (!std::isfinite(initial_backoff_s) || initial_backoff_s < 0) {
    return bad("initial_backoff_s", initial_backoff_s, "finite and >= 0");
  }
  if (!std::isfinite(max_backoff_s) || max_backoff_s < 0) {
    return bad("max_backoff_s", max_backoff_s, "finite and >= 0");
  }
  if (!std::isfinite(backoff_multiplier) || backoff_multiplier < 1) {
    return bad("backoff_multiplier", backoff_multiplier, "finite and >= 1");
  }
  if (!(jitter_ratio >= 0 && jitter_ratio <= 1)) {
    return bad("jitter_ratio", jitter_ratio, "in [0, 1]");
  }
  return Status::Ok();
}

double BackoffSeconds(const RetryPolicy& policy, uint64_t seed, int64_t unit,
                      int attempt) {
  double backoff = policy.initial_backoff_s;
  for (int i = 1; i < attempt; ++i) backoff *= policy.backoff_multiplier;
  backoff = std::min(backoff, policy.max_backoff_s);
  if (policy.jitter_ratio > 0.0) {
    // Deterministic jitter in [1 - r, 1 + r): a SplitMix64 stream keyed on
    // (unit, attempt), never wall clock — reproducible and thread-safe.
    const uint64_t stream = static_cast<uint64_t>(unit) * 1000003u +
                            static_cast<uint64_t>(attempt);
    const uint64_t h = DeriveStreamSeed(seed, stream);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;  // [0, 1)
    backoff *= 1.0 + policy.jitter_ratio * (2.0 * u - 1.0);
  }
  return backoff;
}

namespace {

// Real sleeper: waits on a private condition variable in short slices so a
// RunContext stop is honored within one slice. A cv wait (not a timed
// sleep) keeps the wait interruptible and plays by the repo's no-blind-
// sleep rule.
class RealSleeper : public BackoffSleeper {
 public:
  std::optional<StopReason> Sleep(double seconds, const RunContext& ctx)
      override TYCOS_EXCLUDES(mu_) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point until = DeadlineAfter(Clock::now(), seconds);
    MutexLock lock(&mu_);
    while (Clock::now() < until) {
      if (const std::optional<StopReason> stop = ctx.ShouldStop()) {
        return stop;
      }
      const Clock::time_point slice =
          std::min(until, Clock::now() + std::chrono::milliseconds(10));
      cv_.WaitUntil(mu_, slice);
    }
    return ctx.ShouldStop();
  }

 private:
  Mutex mu_;
  CondVar cv_;
};

}  // namespace

BackoffSleeper* BackoffSleeper::Default() {
  static RealSleeper* sleeper = new RealSleeper;  // leaked: process lifetime
  return sleeper;
}

SuperviseResult Supervise(const RetryPolicy& policy, uint64_t seed,
                          int64_t unit, const RunContext& ctx,
                          BackoffSleeper* sleeper,
                          const std::function<Status(int)>& attempt) {
  static obs::Counter* retries = obs::GetCounter("jobs.retries");
  static obs::Counter* transient = obs::GetCounter("jobs.transient_failures");
  static obs::Counter* permanent = obs::GetCounter("jobs.permanent_failures");

  SuperviseResult result;
  const int max_attempts = std::max(policy.max_attempts, 1);
  for (int n = 1; n <= max_attempts; ++n) {
    if (const std::optional<StopReason> stop = ctx.ShouldStop()) {
      result.stopped = stop;
      return result;
    }
    ++result.attempts;
    result.final_status = attempt(n);
    if (result.final_status.ok()) return result;
    if (ClassifyStatus(result.final_status) == ErrorClass::kPermanent) {
      permanent->Add(1);
      return result;
    }
    transient->Add(1);
    ++result.transient_failures;
    if (n == max_attempts) return result;  // retry budget exhausted
    retries->Add(1);
    const double backoff = BackoffSeconds(policy, seed, unit, n);
    result.backoff_total_s += backoff;
    if (const std::optional<StopReason> stop = sleeper->Sleep(backoff, ctx)) {
      result.stopped = stop;
      return result;
    }
  }
  return result;
}

}  // namespace jobs
}  // namespace tycos
