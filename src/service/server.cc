#include "service/server.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/parallel_for.h"
#include "core/data_policy.h"
#include "jobs/checkpoint.h"
#include "obs/json.h"

namespace tycos {
namespace service {

const char* RequestStateName(RequestState state) {
  switch (state) {
    case RequestState::kQueued:
      return "queued";
    case RequestState::kRunning:
      return "running";
    case RequestState::kDone:
      return "done";
    case RequestState::kFailed:
      return "failed";
    case RequestState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Result<std::unique_ptr<Server>> Server::Create(const ServiceOptions& opts) {
  if (const Status st = opts.shed.Validate(); !st.ok()) return st;
  if (!(opts.default_deadline_seconds >= 0)) {
    return Status::InvalidArgument(
        "ServiceOptions.default_deadline_seconds must be >= 0 (0 = none), "
        "got " + std::to_string(opts.default_deadline_seconds));
  }
  if (opts.evaluation_budget < 0) {
    return Status::InvalidArgument(
        "ServiceOptions.evaluation_budget is negative");
  }
  return std::unique_ptr<Server>(new Server(opts));
}

Server::Server(const ServiceOptions& opts)
    : options_(opts),
      cache_(opts.cache_capacity),
      scheduler_(std::make_unique<Scheduler>(opts.num_workers)) {}

Server::~Server() { Shutdown(); }

Status Server::Append(const std::string& channel,
                      const std::vector<double>& samples) {
  static obs::Counter* appends = obs::GetCounter("service.appends");
  std::vector<double> chunk = samples;
  if (const Status st = SanitizeValues(&chunk, DataPolicy::kReject);
      !st.ok()) {
    return Status::InvalidArgument(
        st.message() + " (channel '" + channel + "'; chunk not ingested)");
  }
  {
    MutexLock lock(&channels_mu_);
    Channel& ch = channels_[channel];
    ch.samples.insert(ch.samples.end(), chunk.begin(), chunk.end());
    ++ch.epoch;  // every append is a new data version, even an empty one
  }
  appends->Add(1);
  return Status::Ok();
}

Result<uint64_t> Server::ChannelEpoch(const std::string& channel) const {
  MutexLock lock(&channels_mu_);
  const auto it = channels_.find(channel);
  if (it == channels_.end()) {
    return Status::NotFound("unknown channel '" + channel + "'");
  }
  return it->second.epoch;
}

Result<int64_t> Server::Submit(const SearchRequest& req) {
  static obs::Counter* admitted = obs::GetCounter("service.admitted");
  static obs::Counter* refused = obs::GetCounter("service.refused");
  static obs::Counter* degraded_c = obs::GetCounter("service.degraded");
  static obs::Counter* cache_hits = obs::GetCounter("service.cache.hits");

  // Fail malformed requests synchronously, against the data as of now.
  // A negative or NaN limit would otherwise read as "unset" below.
  if (!(req.deadline_seconds >= 0)) {
    return Status::InvalidArgument(
        "SearchRequest.deadline_seconds must be >= 0 (0 = server default), "
        "got " + std::to_string(req.deadline_seconds));
  }
  if (req.evaluation_budget < 0) {
    return Status::InvalidArgument(
        "SearchRequest.evaluation_budget must be >= 0 (0 = server default), "
        "got " + std::to_string(req.evaluation_budget));
  }
  // Pin the data version the request answers: both epochs and the common
  // length, read under one hold so an Append cannot land between them.
  auto record = std::make_unique<Request>();
  {
    MutexLock lock(&channels_mu_);
    const auto a = channels_.find(req.channel_a);
    if (a == channels_.end()) {
      return Status::NotFound("unknown channel '" + req.channel_a + "'");
    }
    const auto b = channels_.find(req.channel_b);
    if (b == channels_.end()) {
      return Status::NotFound("unknown channel '" + req.channel_b + "'");
    }
    record->length = std::min(
        static_cast<int64_t>(a->second.samples.size()),
        static_cast<int64_t>(b->second.samples.size()));
    record->epoch_a = a->second.epoch;
    record->epoch_b = b->second.epoch;
  }
  if (const Status st = req.params.Validate(record->length); !st.ok()) {
    return st;
  }

  // The shed ladder, over the probe plus our own in-flight count.
  int64_t in_flight = 0;
  {
    MutexLock lock(&mu_);
    in_flight = in_flight_;
  }
  const std::optional<PairAdmission> admission =
      jobs::Admit(options_.shed, options_.probe, in_flight, req.params,
                  options_.evaluation_budget, req.evaluation_budget);
  if (!admission.has_value()) {
    refused->Add(1);
    return Status::Unavailable(
        "admission refused: overload at shed level 3 (tenant '" +
        req.tenant + "'); retry later");
  }

  record->req = req;
  record->shed_level = admission->shed_level;
  record->degraded = admission->shed_level > 0;
  record->effective = admission->params;
  // Workers each run one engine; size its inner fan-out so the scheduler's
  // width times the engine's width cannot oversubscribe the host. Results
  // are thread-count invariant, so this never changes an answer (and
  // num_threads is excluded from the config hash).
  record->effective.num_threads = ResolveNestedThreadCount(
      req.params.num_threads, scheduler_->num_workers());
  record->config_hash =
      jobs::HashSearchConfig(record->effective, req.variant, req.seed);
  record->ctx.SetParent(&server_ctx_);
  const double deadline = req.deadline_seconds > 0
                              ? req.deadline_seconds
                              : options_.default_deadline_seconds;
  if (deadline > 0) record->ctx.SetDeadlineAfter(deadline);
  record->ctx.SetEvaluationBudget(admission->evaluation_budget);

  // Submit-time cache probe, before the record exists: a hit completes the
  // request without ever touching the queue. Misses are counted at
  // dispatch, where the compute commitment is made.
  std::optional<SearchOutcome> hit = cache_.Lookup(KeyOf(*record));

  // One critical section checks shutdown_ and inserts the record done (a
  // hit) or queued, so it completes once. Shutdown sets shutdown_ before it
  // stops the scheduler, so this enqueue is never refused.
  int64_t id = 0;
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      return Status::Unavailable("server is shutting down");
    }
    id = next_id_++;
    Request* r = record.get();
    requests_.emplace(id, std::move(record));
    ++in_flight_;
    admitted->Add(1);
    if (r->degraded) degraded_c->Add(1);
    if (hit.has_value()) {
      cache_hits->Add(1);
      r->from_cache = true;
      r->outcome = std::move(*hit);
      CompleteLocked(r, RequestState::kDone);
    } else {
      scheduler_->Submit(req.tenant, [this, id] { RunJob(id); });
    }
  }
  if (!hit.has_value()) PublishQueueDepth();
  return id;
}

Result<RequestStatus> Server::Poll(int64_t request_id) const {
  MutexLock lock(&mu_);
  const auto it = requests_.find(request_id);
  if (it == requests_.end()) {
    return Status::NotFound("unknown request id " +
                            std::to_string(request_id));
  }
  return StatusOfLocked(*it->second);
}

Result<RequestStatus> Server::Wait(int64_t request_id) {
  MutexLock lock(&mu_);
  const auto it = requests_.find(request_id);
  if (it == requests_.end()) {
    return Status::NotFound("unknown request id " +
                            std::to_string(request_id));
  }
  Request* r = it->second.get();
  while (r->state == RequestState::kQueued ||
         r->state == RequestState::kRunning) {
    cv_.Wait(mu_);
  }
  return StatusOfLocked(*r);
}

Status Server::Cancel(int64_t request_id) {
  MutexLock lock(&mu_);
  const auto it = requests_.find(request_id);
  if (it == requests_.end()) {
    return Status::NotFound("unknown request id " +
                            std::to_string(request_id));
  }
  Request* r = it->second.get();
  r->ctx.RequestCancel();
  if (r->state == RequestState::kQueued) {
    // The scheduler job will observe the terminal state and no-op.
    CompleteLocked(r, RequestState::kCancelled);
  }
  // kRunning: the engine stops at its next poll and the request completes
  // as kDone with a partial outcome. Terminal states are left untouched.
  return Status::Ok();
}

obs::MetricsSnapshot Server::Metrics() const { return obs::Snapshot(); }

std::string Server::MetricsJson() const {
  return obs::ToJson(obs::Snapshot());
}

void Server::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (shutdown_) return;
    shutdown_ = true;  // refuses new submits from here on
  }
  // Stop in-flight searches at their next poll (they complete partial),
  // then wait for the workers to drain; queued jobs are discarded.
  server_ctx_.RequestCancel();
  scheduler_->Shutdown();
  {
    MutexLock lock(&mu_);
    for (auto& [id, r] : requests_) {
      if (r->state == RequestState::kQueued) {
        CompleteLocked(r.get(), RequestState::kCancelled);
      }
    }
  }
  PublishQueueDepth();
}

void Server::RunJob(int64_t id) {
  static obs::Counter* cache_hits = obs::GetCounter("service.cache.hits");
  static obs::Counter* cache_misses =
      obs::GetCounter("service.cache.misses");
  static obs::Counter* partial_c = obs::GetCounter("service.partial");

  // Claim the request; a cancelled (or otherwise terminal) one is done.
  SearchRequest req;
  TycosParams effective;
  CacheKey key;
  int64_t length = 0;
  const RunContext* ctx = nullptr;
  {
    MutexLock lock(&mu_);
    const auto it = requests_.find(id);
    if (it == requests_.end()) return;
    Request* r = it->second.get();
    if (r->state != RequestState::kQueued) return;
    if (r->ctx.cancel_requested()) {
      CompleteLocked(r, RequestState::kCancelled);
      return;
    }
    r->state = RequestState::kRunning;
    req = r->req;
    effective = r->effective;
    key = KeyOf(*r);
    length = r->length;
    ctx = &r->ctx;  // stable: records live in unique_ptrs
  }
  PublishQueueDepth();

  // Dispatch-time re-probe: an identical request (this tenant's or
  // another's) may have computed the answer while this one queued.
  if (std::optional<SearchOutcome> hit = cache_.Lookup(key)) {
    cache_hits->Add(1);
    MutexLock lock(&mu_);
    const auto it = requests_.find(id);
    if (it == requests_.end()) return;
    Request* r = it->second.get();
    r->from_cache = true;
    r->outcome = std::move(*hit);
    CompleteLocked(r, RequestState::kDone);
    return;
  }
  cache_misses->Add(1);

  // Copy the data version pinned at Submit. Channels only grow, so
  // [0, length) of each is still the data the request's epochs name.
  std::vector<double> ax;
  std::vector<double> ay;
  {
    MutexLock lock(&channels_mu_);
    const std::vector<double>& a = channels_[req.channel_a].samples;
    const std::vector<double>& b = channels_[req.channel_b].samples;
    ax.assign(a.begin(), a.begin() + length);
    ay.assign(b.begin(), b.begin() + length);
  }

  Result<SearchOutcome> outcome = [&]() -> Result<SearchOutcome> {
    Result<SeriesPair> pair =
        SeriesPair::Create(TimeSeries(std::move(ax), req.channel_a),
                           TimeSeries(std::move(ay), req.channel_b));
    if (!pair.ok()) return pair.status();
    Result<std::unique_ptr<Tycos>> engine =
        Tycos::Create(pair.value(), effective, req.variant, req.seed);
    if (!engine.ok()) return engine.status();
    return engine.value()->Run(*ctx);
  }();

  if (outcome.ok() && !outcome.value().partial) {
    cache_.Insert(key, outcome.value());
  }

  {
    MutexLock lock(&mu_);
    const auto it = requests_.find(id);
    if (it == requests_.end()) return;
    Request* r = it->second.get();
    if (!outcome.ok()) {
      r->error = outcome.status();
      CompleteLocked(r, RequestState::kFailed);
      return;
    }
    if (outcome.value().partial) partial_c->Add(1);
    r->outcome = std::move(outcome.value());
    CompleteLocked(r, RequestState::kDone);
  }
}

CacheKey Server::KeyOf(const Request& r) {
  CacheKey key;
  key.channel_a = r.req.channel_a;
  key.channel_b = r.req.channel_b;
  key.config_hash = r.config_hash;
  key.epoch_a = r.epoch_a;
  key.epoch_b = r.epoch_b;
  return key;
}

void Server::CompleteLocked(Request* r, RequestState state) {
  static obs::Counter* completed = obs::GetCounter("service.completed");
  static obs::Counter* failed = obs::GetCounter("service.failed");
  static obs::Counter* cancelled = obs::GetCounter("service.cancelled");
  r->state = state;
  --in_flight_;
  switch (state) {
    case RequestState::kDone:
      completed->Add(1);
      break;
    case RequestState::kFailed:
      failed->Add(1);
      break;
    case RequestState::kCancelled:
      cancelled->Add(1);
      break;
    case RequestState::kQueued:
    case RequestState::kRunning:
      break;  // not terminal; CompleteLocked is never called with these
  }
  cv_.NotifyAll();
}

RequestStatus Server::StatusOfLocked(const Request& r) const {
  RequestStatus s;
  s.state = r.state;
  s.shed_level = r.shed_level;
  s.degraded = r.degraded;
  s.from_cache = r.from_cache;
  s.epoch_a = r.epoch_a;
  s.epoch_b = r.epoch_b;
  s.outcome = r.outcome;
  s.error = r.error;
  return s;
}

void Server::PublishQueueDepth() {
  static obs::Gauge* depth = obs::GetGauge("service.queue_depth");
  depth->Set(scheduler_->QueueDepth());
}

}  // namespace service
}  // namespace tycos
