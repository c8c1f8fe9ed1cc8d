// Service-layer tests: request lifecycle, result-cache correctness
// (epoch keying, bit-identity with the cache off), the admission ladder,
// and the obs metrics surface. Concurrency-heavy coverage lives in
// service_concurrency_test.cc (label: concurrency).

#include "service/server.h"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/relations.h"
#include "jobs/admission.h"
#include "obs/metrics.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;
using service::RequestState;
using service::RequestStatus;
using service::SearchRequest;
using service::Server;
using service::ServiceOptions;

TycosParams Params() {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 24;
  p.s_max = 200;
  p.td_max = 8;
  return p;
}

// A small pair with one planted linear relation.
datagen::SyntheticDataset Data(uint64_t seed = 11) {
  return ComposeDataset({SegmentSpec{RelationType::kLinear, 150, 4}},
                        /*gap=*/60, seed);
}

std::unique_ptr<Server> MakeServer(const ServiceOptions& opts,
                                   const datagen::SyntheticDataset& ds) {
  auto server = Server::Create(opts);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_TRUE(server.value()->Append("a", ds.pair.x().values()).ok());
  EXPECT_TRUE(server.value()->Append("b", ds.pair.y().values()).ok());
  return std::move(server.value());
}

SearchRequest Request(const std::string& tenant = "t0") {
  SearchRequest req;
  req.tenant = tenant;
  req.channel_a = "a";
  req.channel_b = "b";
  req.params = Params();
  return req;
}

void ExpectSameWindows(const WindowSet& got, const WindowSet& want) {
  ASSERT_EQ(got.windows().size(), want.windows().size());
  for (size_t i = 0; i < got.windows().size(); ++i) {
    const Window& g = got.windows()[i];
    const Window& w = want.windows()[i];
    EXPECT_EQ(g.start, w.start);
    EXPECT_EQ(g.end, w.end);
    EXPECT_EQ(g.delay, w.delay);
    EXPECT_EQ(g.mi, w.mi);
  }
}

// The reference answer for (data, params) computed directly — the engine
// is bit-identical at any thread count, so num_threads needs no matching.
WindowSet DirectSearch(const datagen::SyntheticDataset& ds,
                       const TycosParams& params, uint64_t seed = 42) {
  auto engine = Tycos::Create(ds.pair, params, TycosVariant::kLMN, seed);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  auto outcome = engine.value()->Run(RunContext::None());
  EXPECT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome.value().partial);
  return outcome.value().windows;
}

TEST(ServiceTest, SubmitWaitMatchesDirectSearch) {
  const auto ds = Data();
  auto server = MakeServer(ServiceOptions{}, ds);
  const auto id = server->Submit(Request());
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  const auto done = server->Wait(id.value());
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.value().state, RequestState::kDone);
  EXPECT_FALSE(done.value().outcome.partial);
  EXPECT_EQ(done.value().shed_level, 0);
  EXPECT_FALSE(done.value().degraded);
  ExpectSameWindows(done.value().outcome.windows, DirectSearch(ds, Params()));
}

TEST(ServiceTest, RepeatedQueryHitsCacheBitIdentically) {
  const auto ds = Data();
  auto server = MakeServer(ServiceOptions{}, ds);
  const int64_t hits_before =
      obs::Snapshot().CounterValue("service.cache.hits");
  const auto first = server->Wait(server->Submit(Request()).value());
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().state, RequestState::kDone);
  const auto second = server->Wait(server->Submit(Request("t1")).value());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().state, RequestState::kDone);
  EXPECT_TRUE(second.value().from_cache);
  EXPECT_EQ(second.value().epoch_a, first.value().epoch_a);
  EXPECT_EQ(second.value().epoch_b, first.value().epoch_b);
  ExpectSameWindows(second.value().outcome.windows,
                    first.value().outcome.windows);
  EXPECT_GT(obs::Snapshot().CounterValue("service.cache.hits"), hits_before);
}

TEST(ServiceTest, AppendBumpsEpochAndInvalidatesCache) {
  const auto ds = Data();
  auto server = MakeServer(ServiceOptions{}, ds);
  const auto first = server->Wait(server->Submit(Request()).value());
  ASSERT_TRUE(first.ok());

  // New data on one side: the cached entry stops being addressable.
  std::vector<double> extra(40, 0.5);
  ASSERT_TRUE(server->Append("b", extra).ok());
  const auto epoch = server->ChannelEpoch("b");
  ASSERT_TRUE(epoch.ok());
  EXPECT_GT(epoch.value(), first.value().epoch_b);

  const auto second = server->Wait(server->Submit(Request()).value());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().state, RequestState::kDone);
  EXPECT_FALSE(second.value().from_cache);
  EXPECT_EQ(second.value().epoch_b, epoch.value());
}

TEST(ServiceTest, CacheOffIsBitIdenticalToCacheOn) {
  const auto ds = Data();
  ServiceOptions cached;
  ServiceOptions uncached;
  uncached.cache_capacity = 0;
  auto on = MakeServer(cached, ds);
  auto off = MakeServer(uncached, ds);
  for (int round = 0; round < 3; ++round) {
    const auto a = on->Wait(on->Submit(Request()).value());
    const auto b = off->Wait(off->Submit(Request()).value());
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a.value().state, RequestState::kDone);
    ASSERT_EQ(b.value().state, RequestState::kDone);
    EXPECT_FALSE(b.value().from_cache);  // nothing to hit
    ExpectSameWindows(a.value().outcome.windows, b.value().outcome.windows);
  }
}

class FakeProbe : public jobs::LoadProbe {
 public:
  explicit FakeProbe(int64_t rss) : rss_(rss) {}
  jobs::LoadSample Sample() override {
    jobs::LoadSample s;
    s.rss_bytes = rss_;
    return s;
  }

 private:
  int64_t rss_;
};

TEST(ServiceTest, DegradedAdmissionRunsDegradedParams) {
  const auto ds = Data();
  FakeProbe probe(120);  // in [soft=100, mid=150): level 1
  ServiceOptions opts;
  opts.shed.rss_soft_bytes = 100;
  opts.shed.rss_hard_bytes = 200;
  opts.probe = &probe;
  auto server = MakeServer(opts, ds);
  const auto done = server->Wait(server->Submit(Request()).value());
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.value().state, RequestState::kDone);
  EXPECT_EQ(done.value().shed_level, 1);
  EXPECT_TRUE(done.value().degraded);
  // A degraded answer is still deterministic: it matches a direct run
  // under the degraded parameter set.
  ExpectSameWindows(done.value().outcome.windows,
                    DirectSearch(ds, jobs::DegradeParams(Params(), 1)));
}

// The shed level scales the tighter of the request's and the server's
// budgets (jobs::Admit, the durable runner's ladder too).
TEST(ServiceTest, ShedLevelScalesTheTighterBudget) {
  const auto ds = Data(/*seed=*/19);
  const TycosParams degraded = jobs::DegradeParams(Params(), 1);
  const auto direct = [&](int64_t budget) {
    auto engine = Tycos::Create(ds.pair, degraded, TycosVariant::kLMN, 42);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    RunContext ctx = RunContext::WithEvaluationBudget(budget);
    return engine.value()->Run(ctx).value();
  };
  // min(60, 100) halved: the answer of a direct run under budget 30, which
  // the budget cuts short and which differs from the unscaled one's.
  const SearchOutcome want = direct(30);
  ASSERT_EQ(want.stop_reason, StopReason::kBudgetExhausted);
  ASSERT_FALSE(want.windows.empty());
  const SearchOutcome unscaled = direct(60);
  ASSERT_EQ(unscaled.windows.size(), want.windows.size());
  ASSERT_NE(unscaled.windows.windows()[0].start,
            want.windows.windows()[0].start);

  FakeProbe probe(120);  // in [soft=100, mid=150): level 1
  ServiceOptions opts;
  opts.shed.rss_soft_bytes = 100;
  opts.shed.rss_hard_bytes = 200;
  opts.probe = &probe;
  opts.evaluation_budget = 100;
  auto server = MakeServer(opts, ds);
  SearchRequest req = Request();
  req.evaluation_budget = 60;
  const auto done = server->Wait(server->Submit(req).value());
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.value().state, RequestState::kDone);
  EXPECT_EQ(done.value().shed_level, 1);
  EXPECT_EQ(done.value().outcome.stop_reason, StopReason::kBudgetExhausted);
  ExpectSameWindows(done.value().outcome.windows, want.windows);
}

TEST(ServiceTest, OverloadRefusesAtLevelThree) {
  const auto ds = Data();
  FakeProbe probe(5000);  // far past hard: level 3
  ServiceOptions opts;
  opts.shed.rss_soft_bytes = 100;
  opts.shed.rss_hard_bytes = 200;
  opts.probe = &probe;
  auto server = MakeServer(opts, ds);
  const int64_t refused_before =
      obs::Snapshot().CounterValue("service.refused");
  const auto id = server->Submit(Request());
  EXPECT_EQ(id.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(obs::Snapshot().CounterValue("service.refused"), refused_before);
}

TEST(ServiceTest, MisconfiguredShedPolicyRejectedAtCreate) {
  ServiceOptions opts;
  opts.shed.queue_soft = 10;
  opts.shed.queue_hard = 5;  // inverted: the degradation band is empty
  const auto server = Server::Create(opts);
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);
  // NaN fails every comparison, so a `< 0` check would let it through to
  // mean "no deadline".
  for (const double deadline : {-1.0, std::nan("")}) {
    ServiceOptions bad;
    bad.default_deadline_seconds = deadline;
    const auto refused = Server::Create(bad);
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.status().message().find("default_deadline_seconds"),
              std::string::npos);
  }
}

TEST(ServiceTest, UnknownChannelAndRequestAreNotFound) {
  const auto ds = Data();
  auto server = MakeServer(ServiceOptions{}, ds);
  SearchRequest req = Request();
  req.channel_b = "nope";
  EXPECT_EQ(server->Submit(req).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(server->Poll(9999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(server->Cancel(9999).code(), StatusCode::kNotFound);
  EXPECT_EQ(server->ChannelEpoch("nope").status().code(),
            StatusCode::kNotFound);
}

TEST(ServiceTest, MalformedParamsFailSynchronously) {
  const auto ds = Data();
  auto server = MakeServer(ServiceOptions{}, ds);
  SearchRequest req = Request();
  req.params.s_min = 10;
  req.params.s_max = 5;  // inverted
  EXPECT_EQ(server->Submit(req).status().code(),
            StatusCode::kInvalidArgument);
  for (const double deadline : {-1.0, std::nan("")}) {
    req = Request();
    req.deadline_seconds = deadline;
    const auto id = server->Submit(req);
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(id.status().message().find("deadline_seconds"),
              std::string::npos);
  }
  req = Request();
  req.evaluation_budget = -1;
  const auto id = server->Submit(req);
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(id.status().message().find("evaluation_budget"),
            std::string::npos);
}

TEST(ServiceTest, DeadlinedRequestStillCompletesPartial) {
  // A deadline that has effectively already expired: the engine notices on
  // its first poll and returns best-so-far instead of dropping the
  // request.
  const auto ds = Data();
  ServiceOptions opts;
  auto server = MakeServer(opts, ds);
  SearchRequest req = Request();
  req.deadline_seconds = 1e-9;
  const auto id = server->Submit(req);
  ASSERT_TRUE(id.ok());
  const auto done = server->Wait(id.value());
  ASSERT_TRUE(done.ok());
  ASSERT_EQ(done.value().state, RequestState::kDone);
  EXPECT_TRUE(done.value().outcome.partial);
  EXPECT_EQ(done.value().outcome.stop_reason, StopReason::kDeadlineExceeded);
}

TEST(ServiceTest, HugeDeadlineNeverFires) {
  // 1e12 s is past the steady clock's range: it must saturate to "never",
  // not overflow into a deadline that has already passed.
  const auto ds = Data();
  auto server = MakeServer(ServiceOptions{}, ds);
  SearchRequest req = Request();
  req.deadline_seconds = 1e12;
  const auto far = server->Wait(server->Submit(req).value());
  ASSERT_TRUE(far.ok());
  ASSERT_EQ(far.value().state, RequestState::kDone);
  EXPECT_FALSE(far.value().from_cache);
  EXPECT_FALSE(far.value().outcome.partial);
  EXPECT_EQ(far.value().outcome.stop_reason, StopReason::kCompleted);
  const auto none = server->Wait(server->Submit(Request("t1")).value());
  ASSERT_TRUE(none.ok());
  ASSERT_EQ(none.value().state, RequestState::kDone);
  ExpectSameWindows(far.value().outcome.windows, none.value().outcome.windows);
  ExpectSameWindows(far.value().outcome.windows, DirectSearch(ds, Params()));
}

TEST(ServiceTest, CancelIsGraceful) {
  const auto ds = Data();
  ServiceOptions opts;
  auto server = MakeServer(opts, ds);
  const auto id = server->Submit(Request());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(server->Cancel(id.value()).ok());
  const auto done = server->Wait(id.value());
  ASSERT_TRUE(done.ok());
  // Depending on whether the worker had already claimed the request, the
  // cancel lands as a queued-kill or a mid-run stop; both are graceful.
  if (done.value().state == RequestState::kDone) {
    EXPECT_TRUE(done.value().outcome.partial ||
                done.value().outcome.stop_reason == StopReason::kCompleted);
  } else {
    EXPECT_EQ(done.value().state, RequestState::kCancelled);
  }
  // Cancelling a terminal request is a no-op, not an error.
  EXPECT_TRUE(server->Cancel(id.value()).ok());
}

TEST(ServiceTest, ShutdownDrainsAndCancelsQueued) {
  const auto ds = Data();
  ServiceOptions opts;
  opts.num_workers = 1;
  auto server = MakeServer(opts, ds);
  std::vector<int64_t> ids;
  for (int i = 0; i < 6; ++i) {
    const auto id = server->Submit(Request("t" + std::to_string(i)));
    ASSERT_TRUE(id.ok());
    ids.push_back(id.value());
  }
  server->Shutdown();
  for (const int64_t id : ids) {
    const auto st = server->Poll(id);
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(st.value().state == RequestState::kDone ||
                st.value().state == RequestState::kCancelled)
        << service::RequestStateName(st.value().state);
  }
  // New work is refused once shut down.
  EXPECT_EQ(server->Submit(Request()).status().code(),
            StatusCode::kUnavailable);
}

TEST(ServiceTest, MetricsEndpointExposesServiceCounters) {
  const auto ds = Data();
  auto server = MakeServer(ServiceOptions{}, ds);
  const int64_t admitted_before =
      obs::Snapshot().CounterValue("service.admitted");
  ASSERT_TRUE(server->Wait(server->Submit(Request()).value()).ok());
  const auto snapshot = server->Metrics();
  EXPECT_GT(snapshot.CounterValue("service.admitted"), admitted_before);
  const std::string json = server->MetricsJson();
  EXPECT_NE(json.find("\"service.admitted\""), std::string::npos);
  EXPECT_NE(json.find("\"service.queue_depth\""), std::string::npos);
}

TEST(ServiceTest, AppendRefusesNonFiniteChunkWhole) {
  ServiceOptions opts;
  auto server = Server::Create(opts);
  ASSERT_TRUE(server.ok());
  std::vector<double> bad = {1.0, std::nan(""), 2.0};
  EXPECT_EQ(server.value()->Append("c", bad).code(),
            StatusCode::kInvalidArgument);
  // The refused chunk never created the channel.
  EXPECT_EQ(server.value()->ChannelEpoch("c").status().code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace tycos
