// The metrics registry's determinism contract: because counters and
// histogram buckets are integer sums of per-climb tallies, an identical
// multi-restart search or pair sweep must leave a bit-identical registry
// snapshot no matter how its climbs were spread across threads. This is
// what lets the always-on metrics layer coexist with the engine's
// bit-reproducibility guarantee (see parallel_determinism_test.cc for the
// result-set half).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/energy_sim.h"
#include "datagen/relations.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "search/pairwise.h"
#include "search/tycos.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;
using datagen::SyntheticDataset;

TycosParams BaseParams() {
  TycosParams params;
  params.sigma = 0.4;
  params.s_min = 24;
  params.s_max = 200;
  params.td_max = 8;
  params.num_restarts = 8;
  return params;
}

// Runs the search with `threads` executors against a clean registry and
// returns the canonical JSON rendering of the resulting snapshot (sorted,
// byte-stable), plus the engine's stats for cross-checking.
std::string SnapshotAfterRun(const SyntheticDataset& ds, int threads,
                             TycosStats* stats) {
  obs::Registry::Instance().ResetAllForTest();
  TycosParams params = BaseParams();
  params.num_threads = threads;
  Tycos search(ds.pair, params, TycosVariant::kLMN, /*seed=*/7);
  (void)search.Run();
  *stats = search.stats();
  return obs::ToJson(obs::Snapshot());
}

TEST(ObsDeterminismTest, RegistrySnapshotIdenticalAcrossThreadCounts) {
  const SyntheticDataset ds =
      ComposeDataset({SegmentSpec{RelationType::kLinear, 120, 3},
                      SegmentSpec{RelationType::kSine, 120, 2}},
                     /*gap=*/100, /*seed=*/11);
  TycosStats stats1, stats2, stats8;
  const std::string snap1 = SnapshotAfterRun(ds, 1, &stats1);
  const std::string snap2 = SnapshotAfterRun(ds, 2, &stats2);
  const std::string snap8 = SnapshotAfterRun(ds, 8, &stats8);
  EXPECT_EQ(snap1, snap2);
  EXPECT_EQ(snap1, snap8);
  // The TycosStats view (unit sums) must agree too.
  EXPECT_EQ(stats1.climbs, stats8.climbs);
  EXPECT_EQ(stats1.accepted_moves, stats8.accepted_moves);
  EXPECT_EQ(stats1.rejected_moves, stats8.rejected_moves);
  EXPECT_EQ(stats1.mi_evaluations, stats8.mi_evaluations);
  EXPECT_EQ(stats1.noise_blocked, stats8.noise_blocked);
  // And the run did real, observed work.
  EXPECT_GT(stats1.climbs, 0);
  EXPECT_GT(stats1.mi_evaluations, 0);
}

TEST(ObsDeterminismTest, StatsMatchRegistryCounters) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 150, 4}}, /*gap=*/150, /*seed=*/3);
  obs::Registry::Instance().ResetAllForTest();
  TycosParams params = BaseParams();
  params.num_threads = 4;
  Tycos search(ds.pair, params, TycosVariant::kLMN, /*seed=*/5);
  (void)search.Run();
  const TycosStats& stats = search.stats();
  const obs::MetricsSnapshot snap = obs::Snapshot();
  // stats() sums the run's units; with a clean registry and a single
  // engine it must equal what the units published to the registry.
  EXPECT_EQ(stats.climbs, snap.CounterValue("tycos.climbs"));
  EXPECT_EQ(stats.accepted_moves, snap.CounterValue("tycos.accepted_moves"));
  EXPECT_EQ(stats.rejected_moves, snap.CounterValue("tycos.rejected_moves"));
  EXPECT_EQ(stats.noise_blocked, snap.CounterValue("tycos.noise_blocked"));
  EXPECT_EQ(stats.mi_evaluations, snap.CounterValue("mi.evaluations"));
  EXPECT_EQ(stats.cache_hits, snap.CounterValue("mi.cache_hits"));
  EXPECT_EQ(stats.degenerate_windows,
            snap.CounterValue("mi.degenerate_windows"));
  // Per-climb acceptance histogram covers every climb that moved.
  const obs::HistogramSnapshot* ratio =
      snap.FindHistogram("tycos.climb_accept_ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_LE(ratio->total(), stats.climbs);
  EXPECT_GT(ratio->total(), 0);
}

// The sweep path: SweepPairs builds each pair's engine under call_once and
// merges a pair's units on whichever worker ends last, so the snapshot of a
// whole PairwiseSearch must not depend on the thread count either. One day
// of the energy simulator at the pairwise_short benchmark's parameters.
TEST(ObsDeterminismTest, SweepSnapshotIdenticalAcrossThreadCounts) {
  datagen::EnergySimOptions o;
  o.days = 1;
  o.seed = 7;
  const datagen::EnergySimulator sim(o);
  std::vector<TimeSeries> channels;
  for (int ch = 0; ch < datagen::kNumEnergyChannels; ++ch) {
    channels.push_back(sim.Channel(static_cast<datagen::EnergyChannel>(ch)));
  }
  TycosParams p;
  p.sigma = 0.55;
  p.s_min = 16;
  p.s_max = 96;
  p.td_max = 6;
  p.delta = 2;
  for (const int restarts : {0, 4}) {
    std::string one_thread;
    for (const int threads : {1, 2, 4}) {
      obs::Registry::Instance().ResetAllForTest();
      p.num_restarts = restarts;
      p.num_threads = threads;
      const PairwiseResult r = PairwiseSearch(channels, p, TycosVariant::kLMN);
      ASSERT_EQ(r.entries.size(), 36u);
      const obs::MetricsSnapshot snap = obs::Snapshot();
      EXPECT_GT(snap.CounterValue("mi.evaluations"), 0);
      const std::string json = obs::ToJson(snap);
      if (threads == 1) one_thread = json;
      EXPECT_EQ(json, one_thread)
          << "restarts " << restarts << ", threads " << threads;
    }
  }
}

}  // namespace
}  // namespace tycos
