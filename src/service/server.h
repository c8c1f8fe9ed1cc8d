// The correlation-search service: a long-lived, multi-tenant, in-process
// server wrapping the TYCOS engine. Tenants ingest samples into named
// channels and submit search requests over channel pairs; the server
// answers through an asynchronous submit / poll / cancel API.
//
// Ingest is all or nothing: Append refuses a chunk holding any non-finite
// sample (see Append for why).
//
// Request lifecycle:
//
//   Submit ── pins the data version the request answers: both channels'
//   epochs and their common length, read under one hold of the store
//   lock. Then jobs::Admit, the durable runner's ladder, over a LoadProbe
//   reading RSS and the live in-flight count: level 0 runs full params,
//   levels 1–2 run jobs::DegradeParams with a scaled evaluation budget,
//   level 3 refuses with Status::Unavailable — the request never enters
//   the queue. Admitted requests probe the result cache (service/cache.h)
//   at the pinned epochs and either complete immediately (cache hit) or
//   enqueue on the fair-share scheduler (service/scheduler.h): FIFO per
//   tenant, the least-served tenant first.
//
//   Run ── the worker re-probes the cache at the pinned epochs and, on a
//   miss, copies the pinned prefix of both channels (channels only grow,
//   so an Append while the request queued never changes what it
//   searches) and runs Tycos under the request's RunContext (deadline +
//   budget, parented to the server context so Shutdown() cancels every
//   in-flight search). A deadline or cancellation mid-run still completes
//   the request with a partial SearchOutcome — overload degrades answers,
//   it does not drop admitted work.
//
//   Complete ── complete (non-partial) outcomes enter the cache keyed on
//   (pair, effective-config hash, epochs); appends bump a channel's epoch,
//   so stale entries stop being addressable (see cache.h).
//
// The metrics surface is the process-wide obs registry: Metrics() /
// MetricsJson() snapshot it, and the service publishes service.* counters
// (admitted, refused, degraded, completed, partial, failed, cancelled,
// cache.hits, cache.misses, appends) plus the service.queue_depth gauge.
//
// Thread-safe: all public methods may be called concurrently.

#ifndef TYCOS_SERVICE_SERVER_H_
#define TYCOS_SERVICE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/run_context.h"
#include "common/status.h"
#include "jobs/admission.h"
#include "obs/metrics.h"
#include "search/params.h"
#include "search/tycos.h"
#include "service/cache.h"
#include "service/scheduler.h"

namespace tycos {
namespace service {

struct ServiceOptions {
  // Scheduler width; <= 0 resolves to one worker per hardware thread.
  int num_workers = 1;

  // Result-cache capacity in entries; 0 disables caching entirely.
  size_t cache_capacity = 128;

  // Admission ladder (default-constructed = disabled: everything admitted
  // at level 0). Validated by Server::Create.
  jobs::ShedPolicy shed;

  // Load readings for the ladder; the server overlays its own in-flight
  // request count on the sample's queue_depth. nullptr = the process's RSS
  // (jobs::Admit's default probe). Must outlive the server.
  jobs::LoadProbe* probe = nullptr;

  // Deadline applied to requests that don't set their own; 0 = none. The
  // clock starts at Submit, so time spent queued counts against it.
  double default_deadline_seconds = 0;

  // Per-request evaluation budget; 0 = unlimited. Folded with the
  // request's own budget (tighter wins) and scaled by the shed level.
  int64_t evaluation_budget = 0;
};

struct SearchRequest {
  std::string tenant = "default";  // the fair-share unit (scheduler.h)
  std::string channel_a;
  std::string channel_b;
  TycosParams params;
  TycosVariant variant = TycosVariant::kLMN;
  uint64_t seed = 42;
  double deadline_seconds = 0;   // 0 → ServiceOptions default
  int64_t evaluation_budget = 0;  // 0 → ServiceOptions default
};

enum class RequestState {
  kQueued = 0,  // admitted, waiting for a worker
  kRunning,     // a worker is searching
  kDone,        // outcome available (possibly partial)
  kFailed,      // the engine rejected the request; see `error`
  kCancelled,   // cancelled (or shed at shutdown) before any result
};

// Human-readable name ("queued", "running", ...).
const char* RequestStateName(RequestState state);

struct RequestStatus {
  RequestState state = RequestState::kQueued;
  int shed_level = 0;       // admission level the request ran at
  bool degraded = false;    // shed_level 1 or 2: DegradeParams applied
  bool from_cache = false;  // outcome served from the result cache
  // Channel epochs pinned at Submit: the data version the request answers
  // (in every state, so a queued request already names it).
  uint64_t epoch_a = 0;
  uint64_t epoch_b = 0;
  SearchOutcome outcome;  // kDone only; outcome.partial marks early stops
  Status error = Status::Ok();  // kFailed only
};

class Server {
 public:
  // Validates the options (including ShedPolicy::Validate — a
  // misconfigured ladder is refused here, before it can misadmit).
  static Result<std::unique_ptr<Server>> Create(const ServiceOptions& opts);

  ~Server();  // Shutdown()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Appends samples to `channel`, creating it on first use. Bumps the
  // channel's data epoch, invalidating every cached result involving it.
  // A chunk holding any non-finite sample is refused whole
  // (InvalidArgument; nothing buffered, epoch unchanged): the search pairs
  // sample i of both channels, so repairing one channel's chunk (dropping
  // a row) would misalign it against every partner.
  Status Append(const std::string& channel, const std::vector<double>& samples)
      TYCOS_EXCLUDES(channels_mu_);

  // The channel's current data epoch (starts at 1), or NotFound.
  Result<uint64_t> ChannelEpoch(const std::string& channel) const
      TYCOS_EXCLUDES(channels_mu_);

  // Admission + enqueue. Returns the request id to poll, or:
  //   Unavailable      — refused by the admission ladder (level 3) or the
  //                      server is shutting down;
  //   NotFound         — an unknown channel;
  //   InvalidArgument  — malformed params or limits.
  Result<int64_t> Submit(const SearchRequest& req)
      TYCOS_EXCLUDES(mu_, channels_mu_);

  // Snapshot of the request's current status; NotFound for unknown ids.
  Result<RequestStatus> Poll(int64_t request_id) const TYCOS_EXCLUDES(mu_);

  // Blocks until the request reaches a terminal state and returns it.
  Result<RequestStatus> Wait(int64_t request_id) TYCOS_EXCLUDES(mu_);

  // Requests cancellation: a queued request completes as kCancelled; a
  // running one stops at the engine's next poll and completes as kDone
  // with a partial outcome (stop_reason kCancelled). Terminal requests are
  // untouched. NotFound for unknown ids.
  Status Cancel(int64_t request_id) TYCOS_EXCLUDES(mu_);

  // The obs endpoint: a snapshot of the process-wide metrics registry
  // (service.* plus the engine's own counters), and its JSON rendering.
  obs::MetricsSnapshot Metrics() const;
  std::string MetricsJson() const;

  // Graceful stop: cancels in-flight searches (they complete partial),
  // discards queued requests as kCancelled, refuses new submits, joins the
  // workers. Idempotent; the destructor calls it.
  void Shutdown() TYCOS_EXCLUDES(mu_);

 private:
  struct Channel {
    std::vector<double> samples;
    uint64_t epoch = 1;
  };
  struct Request {
    SearchRequest req;            // as submitted
    TycosParams effective;        // post-degrade params actually run
    uint64_t config_hash = 0;     // HashSearchConfig(effective, ...)
    RequestState state = RequestState::kQueued;
    int shed_level = 0;
    bool degraded = false;
    bool from_cache = false;
    // The data version pinned at Submit: both epochs and the channels'
    // common length then.
    uint64_t epoch_a = 0;
    uint64_t epoch_b = 0;
    int64_t length = 0;
    SearchOutcome outcome;
    Status error = Status::Ok();
    RunContext ctx;  // parented to server_ctx_; armed at submit
  };

  explicit Server(const ServiceOptions& opts);

  // Worker body for request `id`: probe cache, copy the pinned data, run.
  void RunJob(int64_t id) TYCOS_EXCLUDES(mu_, channels_mu_);

  // The cache key of the request's pinned data version.
  static CacheKey KeyOf(const Request& r);

  // Terminal-state transition helpers; all notify waiters.
  void CompleteLocked(Request* r, RequestState state) TYCOS_REQUIRES(mu_);

  RequestStatus StatusOfLocked(const Request& r) const TYCOS_REQUIRES(mu_);

  void PublishQueueDepth();

  const ServiceOptions options_;
  RunContext server_ctx_;  // cancelled at Shutdown

  mutable Mutex channels_mu_;
  std::unordered_map<std::string, Channel> channels_
      TYCOS_GUARDED_BY(channels_mu_);

  mutable Mutex mu_;
  CondVar cv_;  // signalled on every terminal transition
  std::unordered_map<int64_t, std::unique_ptr<Request>> requests_
      TYCOS_GUARDED_BY(mu_);
  int64_t next_id_ TYCOS_GUARDED_BY(mu_) = 1;
  // Requests admitted but not yet terminal — the queue-depth overlay the
  // admission probe sees.
  int64_t in_flight_ TYCOS_GUARDED_BY(mu_) = 0;
  bool shutdown_ TYCOS_GUARDED_BY(mu_) = false;

  ResultCache cache_;
  // Last: must destruct (joining workers that touch everything above)
  // first.
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace service
}  // namespace tycos

#endif  // TYCOS_SERVICE_SERVER_H_
