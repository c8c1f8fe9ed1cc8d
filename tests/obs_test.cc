#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"

namespace tycos {
namespace obs {
namespace {

// The registry is process-wide; each test works on uniquely named metrics
// (and resets up front) so tests stay independent of each other and of any
// searches other test binaries' fixtures may have run.
class ObsRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::Instance().ResetAllForTest(); }
};

TEST_F(ObsRegistryTest, CounterFindOrCreateReturnsStableHandle) {
  Counter* a = GetCounter("test.stable_handle");
  Counter* b = GetCounter("test.stable_handle");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->Value(), 3);
}

TEST_F(ObsRegistryTest, ShardedCounterAggregatesAcrossThreads) {
  Counter* c = GetCounter("test.sharded_sum");
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([c] {
      for (int i = 0; i < kAddsPerThread; ++i) c->Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c->Value(), int64_t{kThreads} * kAddsPerThread);
}

TEST_F(ObsRegistryTest, GaugeLastWriteWins) {
  Gauge* g = GetGauge("test.gauge");
  EXPECT_EQ(g->Value(), 0);
  g->Set(7);
  g->Set(-2);
  EXPECT_EQ(g->Value(), -2);
}

TEST_F(ObsRegistryTest, HistogramBucketEdges) {
  Histogram* h = GetHistogram("test.buckets", {1.0, 2.0, 4.0});
  h->Observe(0.5);   // below first bound -> bucket 0
  h->Observe(1.0);   // exactly on a bound -> that bucket (v <= bound)
  h->Observe(1.5);   // bucket 1
  h->Observe(4.0);   // last bounded bucket
  h->Observe(4.01);  // above every bound -> overflow
  const HistogramSnapshot snap = h->Snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2);  // 0.5 and 1.0
  EXPECT_EQ(snap.counts[1], 1);
  EXPECT_EQ(snap.counts[2], 1);
  EXPECT_EQ(snap.counts[3], 1);
  EXPECT_EQ(snap.total(), 5);
}

TEST_F(ObsRegistryTest, HistogramNanGoesToOverflow) {
  Histogram* h = GetHistogram("test.nan", {1.0, 2.0});
  h->Observe(std::nan(""));
  const HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.counts[0], 0);
  EXPECT_EQ(snap.counts[1], 0);
  EXPECT_EQ(snap.counts[2], 1);
}

TEST_F(ObsRegistryTest, HistogramShardedObserveAggregatesAcrossThreads) {
  Histogram* h = GetHistogram("test.sharded_hist", {0.0, 1.0});
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([h] {
      for (int i = 0; i < 1000; ++i) h->Observe(i % 2 == 0 ? 0.0 : 1.0);
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = h->Snapshot();
  EXPECT_EQ(snap.counts[0], 8 * 500);
  EXPECT_EQ(snap.counts[1], 8 * 500);
}

TEST_F(ObsRegistryTest, FirstHistogramBoundsWin) {
  Histogram* a = GetHistogram("test.bounds_win", {1.0, 2.0});
  Histogram* b = GetHistogram("test.bounds_win", {9.0});
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->bounds().size(), 2u);
}

TEST_F(ObsRegistryTest, ResetZeroesValuesButKeepsHandles) {
  Counter* c = GetCounter("test.reset");
  Histogram* h = GetHistogram("test.reset_hist", {1.0});
  c->Add(5);
  h->Observe(0.5);
  Registry::Instance().ResetAllForTest();
  EXPECT_EQ(c->Value(), 0);
  EXPECT_EQ(h->Snapshot().total(), 0);
  c->Add(2);  // handle still live
  EXPECT_EQ(c->Value(), 2);
}

TEST_F(ObsRegistryTest, SnapshotIsSortedByName) {
  GetCounter("test.zebra")->Add(1);
  GetCounter("test.alpha")->Add(1);
  const MetricsSnapshot snap = Snapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  EXPECT_EQ(snap.CounterValue("test.alpha"), 1);
  EXPECT_EQ(snap.CounterValue("test.never_registered"), 0);
}

TEST_F(ObsRegistryTest, JsonIsDeterministicAndWellFormed) {
  GetCounter("test.json_counter")->Add(3);
  GetGauge("test.json_gauge")->Set(-1);
  GetHistogram("test.json_hist", {0.5, 1.5})->Observe(1.0);
  const std::string a = ToJson(Snapshot());
  const std::string b = ToJson(Snapshot());
  EXPECT_EQ(a, b);  // equal state -> byte-identical rendering
  EXPECT_NE(a.find("\"test.json_counter\": 3"), std::string::npos) << a;
  EXPECT_NE(a.find("\"counters\""), std::string::npos);
  EXPECT_NE(a.find("\"gauges\""), std::string::npos);
  EXPECT_NE(a.find("\"histograms\""), std::string::npos);
  EXPECT_NE(a.find("\"bounds\""), std::string::npos);
}

TEST_F(ObsRegistryTest, WriteJsonWritesFile) {
  GetCounter("test.json_file")->Add(1);
  const std::string path = ::testing::TempDir() + "/tycos_metrics.json";
  ASSERT_TRUE(WriteJson(path, Snapshot()).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("test.json_file"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace tycos
