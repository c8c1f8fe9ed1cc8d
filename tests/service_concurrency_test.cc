// Concurrency coverage for the service layer (label: concurrency; runs
// under the TSan preset). Five properties:
//
//   1. Freshness — with tenants submitting concurrently against a channel
//      another tenant keeps appending to, every completed result is
//      bit-identical to a direct engine run over the exact data version
//      its (epoch_a, epoch_b) stamp names. Cache-epoch invalidation can
//      therefore never serve a stale answer.
//   2. Pinning — a request answers the data version current at its
//      Submit: an Append while it waits in the queue changes neither its
//      epochs nor the data it searches.
//   3. Fairness — the scheduler's dispatched-count tie-break bounds
//      starvation: a tenant flooding the queue cannot push a light
//      tenant's jobs to the back.
//   4. Teardown — Submit racing Shutdown leaves every admitted request in
//      a terminal state, reached once.
//   5. Nesting — requests with restarts and num_threads 0 run each
//      engine's own unit ParallelFor inside a scheduler worker (the
//      service's one nested loop) and still answer exactly as a 1-thread
//      engine run.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/relations.h"
#include "obs/metrics.h"
#include "service/scheduler.h"
#include "service/server.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;
using service::RequestState;
using service::RequestStatus;
using service::Scheduler;
using service::SearchRequest;
using service::Server;
using service::ServiceOptions;

TycosParams Params() {
  TycosParams p;
  // s_max must fit the shortest data version queried: the freshness test
  // searches y prefixes as short as 100 samples.
  p.sigma = 0.5;
  p.s_min = 16;
  p.s_max = 64;
  p.td_max = 6;
  return p;
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

// N tenants query while another keeps appending: every kDone non-partial
// result must match a direct run over the data version its epochs name.
TEST(ServiceConcurrencyTest, ResultsAreNeverStale) {
  const auto ds =
      ComposeDataset({SegmentSpec{RelationType::kLinear, 120, 3}},
                     /*gap=*/50, /*seed=*/7);
  const std::vector<double>& xs = ds.pair.x().values();
  const std::vector<double>& ys = ds.pair.y().values();

  // y grows in chunks; x is ingested whole. After setup, x is at epoch 2
  // and y at epoch 2; appending chunk c (1-based) moves y to epoch 2 + c.
  std::vector<std::vector<double>> chunks;
  chunks.emplace_back(ys.begin(), ys.begin() + 100);
  for (size_t at = 100; at < ys.size(); at += 40) {
    const size_t end = std::min(at + 40, ys.size());
    chunks.emplace_back(ys.begin() + at, ys.begin() + end);
  }

  ServiceOptions opts;
  opts.num_workers = 2;
  auto server_or = Server::Create(opts);
  ASSERT_TRUE(server_or.ok());
  Server& server = *server_or.value();
  ASSERT_TRUE(server.Append("x", xs).ok());
  ASSERT_TRUE(server.Append("y", chunks[0]).ok());

  std::mutex mu;
  std::vector<RequestStatus> results;

  auto query = [&](const std::string& tenant) {
    SearchRequest req;
    req.tenant = tenant;
    req.channel_a = "x";
    req.channel_b = "y";
    req.params = Params();
    const auto id = server.Submit(req);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    const auto done = server.Wait(id.value());
    ASSERT_TRUE(done.ok());
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(done.value());
  };

  constexpr int kTenants = 3;
  constexpr int kRounds = 4;
  std::vector<std::thread> threads;
  threads.reserve(kTenants + 1);
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) query("tenant-" + std::to_string(t));
    });
  }
  // The appender interleaves its own queries with appends, so tenant
  // searches race real epoch bumps.
  threads.emplace_back([&] {
    for (size_t c = 1; c < chunks.size(); ++c) {
      query("appender");
      ASSERT_TRUE(server.Append("y", chunks[c]).ok());
    }
    query("appender");
  });
  for (std::thread& th : threads) th.join();

  const auto y_epoch = server.ChannelEpoch("y");
  ASSERT_TRUE(y_epoch.ok());
  EXPECT_EQ(y_epoch.value(), 1 + chunks.size());

  // Reference answers per y-epoch, computed serially after the fact.
  std::map<uint64_t, WindowSet> reference;
  auto reference_for = [&](uint64_t epoch_b) -> const WindowSet& {
    auto it = reference.find(epoch_b);
    if (it == reference.end()) {
      std::vector<double> y_prefix;
      for (uint64_t c = 0; c + 2 <= epoch_b; ++c) {
        y_prefix.insert(y_prefix.end(), chunks[c].begin(), chunks[c].end());
      }
      const size_t n = std::min(xs.size(), y_prefix.size());
      auto pair = SeriesPair::Create(
          TimeSeries(std::vector<double>(xs.begin(), xs.begin() + n), "x"),
          TimeSeries(std::vector<double>(y_prefix.begin(),
                                         y_prefix.begin() + n),
                     "y"));
      EXPECT_TRUE(pair.ok());
      auto engine =
          Tycos::Create(pair.value(), Params(), TycosVariant::kLMN, 42);
      EXPECT_TRUE(engine.ok());
      auto outcome = engine.value()->Run(RunContext::None());
      EXPECT_TRUE(outcome.ok());
      EXPECT_FALSE(outcome.value().partial);
      it = reference.emplace(epoch_b, outcome.value().windows).first;
    }
    return it->second;
  };

  ASSERT_EQ(results.size(),
            static_cast<size_t>(kTenants * kRounds) + chunks.size());
  for (const RequestStatus& r : results) {
    ASSERT_EQ(r.state, RequestState::kDone);
    ASSERT_FALSE(r.outcome.partial);
    EXPECT_EQ(r.epoch_a, 2u);
    ASSERT_GE(r.epoch_b, 2u);
    ASSERT_LE(r.epoch_b, 1 + chunks.size());
    ExpectSameWindows(r.outcome.windows, reference_for(r.epoch_b));
  }
}

// Requests queued behind a busy worker answer the data as of their Submit:
// an append that lands while they wait bumps the channels' epochs but not
// the data those requests search.
TEST(ServiceConcurrencyTest, QueuedRequestAnswersTheDataAsOfSubmit) {
  const auto ds =
      ComposeDataset({SegmentSpec{RelationType::kLinear, 120, 3}},
                     /*gap=*/50, /*seed=*/11);
  const std::vector<double>& xs = ds.pair.x().values();
  const std::vector<double>& ys = ds.pair.y().values();
  const auto n = static_cast<std::ptrdiff_t>(xs.size()) - 40;  // then +40

  ServiceOptions opts;
  opts.num_workers = 1;
  opts.cache_capacity = 0;  // every request searches
  auto server_or = Server::Create(opts);
  ASSERT_TRUE(server_or.ok());
  Server& server = *server_or.value();
  ASSERT_TRUE(server.Append("x", {xs.begin(), xs.begin() + n}).ok());
  ASSERT_TRUE(server.Append("y", {ys.begin(), ys.begin() + n}).ok());

  SearchRequest req;
  req.channel_a = "x";
  req.channel_b = "y";
  req.params = Params();
  std::vector<int64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const auto id = server.Submit(req);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ids.push_back(id.value());
  }
  ASSERT_TRUE(server.Append("x", {xs.begin() + n, xs.end()}).ok());
  ASSERT_TRUE(server.Append("y", {ys.begin() + n, ys.end()}).ok());

  auto pair = SeriesPair::Create(
      TimeSeries(std::vector<double>(xs.begin(), xs.begin() + n), "x"),
      TimeSeries(std::vector<double>(ys.begin(), ys.begin() + n), "y"));
  ASSERT_TRUE(pair.ok());
  auto engine = Tycos::Create(pair.value(), Params(), TycosVariant::kLMN, 42);
  ASSERT_TRUE(engine.ok());
  const auto want = engine.value()->Run(RunContext::None());
  ASSERT_TRUE(want.ok());
  for (const int64_t id : ids) {
    SCOPED_TRACE("request " + std::to_string(id));
    const auto done = server.Wait(id);
    ASSERT_TRUE(done.ok());
    ASSERT_EQ(done.value().state, RequestState::kDone);
    EXPECT_EQ(done.value().epoch_a, 2u);
    EXPECT_EQ(done.value().epoch_b, 2u);
    ExpectSameWindows(done.value().outcome.windows, want.value().windows);
  }
}

// Several tenants submit restart searches at once. Each worker runs its
// engine's units in a nested ParallelFor (num_threads 0 resolves through
// ResolveNestedThreadCount); every answer must equal a direct 1-thread
// engine run with the same params and seed.
TEST(ServiceConcurrencyTest, NestedRestartPoolsMatchDirectRuns) {
  const auto ds =
      ComposeDataset({SegmentSpec{RelationType::kLinear, 120, 3},
                      SegmentSpec{RelationType::kSine, 120, 2}},
                     /*gap=*/60, /*seed=*/17);
  ServiceOptions opts;
  opts.num_workers = 2;
  auto server_or = Server::Create(opts);
  ASSERT_TRUE(server_or.ok());
  Server& server = *server_or.value();
  ASSERT_TRUE(server.Append("x", ds.pair.x().values()).ok());
  ASSERT_TRUE(server.Append("y", ds.pair.y().values()).ok());

  TycosParams params = Params();
  params.num_restarts = 4;
  params.num_threads = 0;
  std::mutex mu;
  std::map<uint64_t, RequestStatus> results;  // by seed

  constexpr int kTenants = 3;
  constexpr int kRounds = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        SearchRequest req;
        req.tenant = "tenant-" + std::to_string(t);
        req.channel_a = "x";
        req.channel_b = "y";
        req.params = params;
        req.seed = static_cast<uint64_t>(100 + kRounds * t + r);
        const auto id = server.Submit(req);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        const auto done = server.Wait(id.value());
        ASSERT_TRUE(done.ok());
        std::lock_guard<std::mutex> lock(mu);
        results.emplace(req.seed, done.value());
      }
    });
  }
  for (std::thread& th : threads) th.join();

  ASSERT_EQ(results.size(), static_cast<size_t>(kTenants * kRounds));
  TycosParams direct = params;
  direct.num_threads = 1;
  for (const auto& [seed, r] : results) {
    ASSERT_EQ(r.state, RequestState::kDone) << "seed " << seed;
    auto engine =
        Tycos::Create(ds.pair, direct, TycosVariant::kLMN, seed);
    ASSERT_TRUE(engine.ok());
    const auto want = engine.value()->Run(RunContext::None());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(r.outcome.partial, want.value().partial) << "seed " << seed;
    EXPECT_EQ(r.outcome.stop_reason, want.value().stop_reason)
        << "seed " << seed;
    ExpectSameWindows(r.outcome.windows, want.value().windows);
  }
}

// Scaffolding for the scheduler tests: holds the single worker on a gate
// job so a batch can be enqueued atomically, then records dispatch order.
class GatedScheduler {
 public:
  GatedScheduler() : sched_(1) {
    sched_.Submit("gate", [this] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!released_) cv_.wait(lock);
    });
  }

  void Enqueue(const std::string& tenant, char tag) {
    sched_.Submit(tenant, [this, tag] {
      std::lock_guard<std::mutex> lock(mu_);
      order_.push_back(tag);
      cv_.notify_all();
    });
  }

  std::string ReleaseAndDrain(size_t expect) {
    std::unique_lock<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
    while (order_.size() < expect) cv_.wait(lock);
    return order_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  std::string order_;
  Scheduler sched_;  // last: workers must die before the state they touch
};

// A tenant flooding 16 jobs cannot starve a tenant with 4: the
// dispatched-count tie-break alternates them, so the light tenant's i-th
// job runs at position 2i+1, not position 16+i.
TEST(ServiceConcurrencyTest, FairShareBoundsStarvation) {
  GatedScheduler gated;
  for (int i = 0; i < 16; ++i) gated.Enqueue("flooder", 'A');
  for (int i = 0; i < 4; ++i) gated.Enqueue("light", 'B');
  const std::string order = gated.ReleaseAndDrain(20);
  ASSERT_EQ(order.size(), 20u);
  EXPECT_EQ(order.substr(0, 8), "ABABABAB");
  EXPECT_EQ(order.substr(8), std::string(12, 'A'));
}

// Submit racing Shutdown: every id that Submit returned reaches a
// terminal state exactly once; late submits fail Unavailable instead of
// wedging.
TEST(ServiceConcurrencyTest, ShutdownRacingSubmitLeavesNoOrphans) {
  const auto ds =
      ComposeDataset({SegmentSpec{RelationType::kLinear, 120, 3}},
                     /*gap=*/50, /*seed=*/13);
  ServiceOptions opts;
  opts.num_workers = 2;
  auto server_or = Server::Create(opts);
  ASSERT_TRUE(server_or.ok());
  Server& server = *server_or.value();
  ASSERT_TRUE(server.Append("x", ds.pair.x().values()).ok());
  ASSERT_TRUE(server.Append("y", ds.pair.y().values()).ok());

  const obs::MetricsSnapshot before = obs::Snapshot();
  std::mutex mu;
  std::vector<int64_t> admitted;
  std::atomic<bool> first_admitted{false};

  std::vector<std::thread> submitters;
  for (int t = 0; t < 2; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 5; ++i) {
        SearchRequest req;
        req.tenant = "t" + std::to_string(t);
        req.channel_a = "x";
        req.channel_b = "y";
        req.params = Params();
        const auto id = server.Submit(req);
        if (id.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          admitted.push_back(id.value());
          first_admitted.store(true);
        } else {
          EXPECT_EQ(id.status().code(), StatusCode::kUnavailable);
        }
      }
    });
  }
  while (!first_admitted.load()) std::this_thread::yield();
  server.Shutdown();
  for (std::thread& th : submitters) th.join();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(admitted.empty());
  for (const int64_t id : admitted) {
    const auto st = server.Poll(id);
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(st.value().state == RequestState::kDone ||
                st.value().state == RequestState::kCancelled ||
                st.value().state == RequestState::kFailed)
        << service::RequestStateName(st.value().state);
  }
  // Each admitted request completed once: a request completed twice (a
  // late completion after Shutdown's sweep) would count twice here.
  const obs::MetricsSnapshot after = obs::Snapshot();
  const auto delta = [&](const std::string& name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  EXPECT_EQ(delta("service.admitted"),
            delta("service.completed") + delta("service.failed") +
                delta("service.cancelled"));
  EXPECT_LE(delta("service.partial"), delta("service.completed"));
}

}  // namespace
}  // namespace tycos
