#include "search/pairwise.h"

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/energy_sim.h"
#include "datagen/relations.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;

// Three channels: A and B share a planted relation, C is independent noise.
std::vector<TimeSeries> MakeChannels(uint64_t seed) {
  const auto ds = ComposeDataset(
      {SegmentSpec{RelationType::kSine, 200, 8}}, /*gap=*/200, seed);
  Rng rng(seed + 99);
  std::vector<double> c(static_cast<size_t>(ds.pair.size()));
  for (double& v : c) v = rng.Normal();
  return {ds.pair.x(), ds.pair.y(), TimeSeries(std::move(c), "C")};
}

TycosParams Params() {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 24;
  p.s_max = 300;
  p.td_max = 16;
  return p;
}

TEST(PairwiseSearchTest, RanksTheRelatedPairFirst) {
  const auto channels = MakeChannels(1);
  const PairwiseResult r =
      PairwiseSearch(channels, Params(), TycosVariant::kLMN);
  ASSERT_EQ(r.entries.size(), 3u);  // (0,1), (0,2), (1,2)
  EXPECT_EQ(r.entries[0].a, 0);
  EXPECT_EQ(r.entries[0].b, 1);
  EXPECT_GT(r.entries[0].best_score, 0.5);
  EXPECT_FALSE(r.entries[0].windows.empty());
}

TEST(PairwiseSearchTest, UnrelatedPairsFindNothing) {
  const auto channels = MakeChannels(2);
  const PairwiseResult r =
      PairwiseSearch(channels, Params(), TycosVariant::kLMN);
  const std::vector<size_t> correlated = r.Correlated();
  ASSERT_EQ(correlated.size(), 1u);
  EXPECT_EQ(r.entries[correlated[0]].a, 0);
  EXPECT_EQ(r.entries[correlated[0]].b, 1);
}

TEST(PairwiseSearchTest, CoversAllUnorderedPairs) {
  const auto channels = MakeChannels(3);
  const PairwiseResult r =
      PairwiseSearch(channels, Params(), TycosVariant::kLMN);
  int seen[3][3] = {};
  for (const PairwiseEntry& e : r.entries) {
    ASSERT_LT(e.a, e.b);
    ++seen[e.a][e.b];
  }
  EXPECT_EQ(seen[0][1], 1);
  EXPECT_EQ(seen[0][2], 1);
  EXPECT_EQ(seen[1][2], 1);
}

TEST(PairwiseSearchTest, DeterministicForFixedSeed) {
  const auto channels = MakeChannels(4);
  const PairwiseResult r1 =
      PairwiseSearch(channels, Params(), TycosVariant::kLMN, 7);
  const PairwiseResult r2 =
      PairwiseSearch(channels, Params(), TycosVariant::kLMN, 7);
  ASSERT_EQ(r1.entries.size(), r2.entries.size());
  for (size_t i = 0; i < r1.entries.size(); ++i) {
    EXPECT_EQ(r1.entries[i].a, r2.entries[i].a);
    EXPECT_EQ(r1.entries[i].b, r2.entries[i].b);
    EXPECT_DOUBLE_EQ(r1.entries[i].best_score, r2.entries[i].best_score);
  }
}

// Entries in the same order, over the same pairs, with the same windows and
// scores, compared bit for bit.
void ExpectIdenticalResults(const PairwiseResult& got,
                            const PairwiseResult& want) {
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (size_t i = 0; i < got.entries.size(); ++i) {
    const PairwiseEntry& g = got.entries[i];
    const PairwiseEntry& w = want.entries[i];
    const std::string at =
        "entry " + std::to_string(i) + " pair (" + std::to_string(w.a) + "," +
        std::to_string(w.b) + ")";
    EXPECT_EQ(g.a, w.a) << at;
    EXPECT_EQ(g.b, w.b) << at;
    EXPECT_EQ(g.best_score, w.best_score) << at;
    ASSERT_EQ(g.windows.size(), w.windows.size()) << at;
    for (size_t j = 0; j < w.windows.size(); ++j) {
      const Window& gw = g.windows.windows()[j];
      const Window& ww = w.windows.windows()[j];
      EXPECT_EQ(gw.start, ww.start) << at;
      EXPECT_EQ(gw.end, ww.end) << at;
      EXPECT_EQ(gw.delay, ww.delay) << at;
      EXPECT_EQ(gw.mi, ww.mi) << at;
    }
  }
}

// A unit_done hook that drops one unit drops its whole pair: the pair is
// finished with no outcome and left out as skipped, while the others are
// reported exactly as a sweep without hooks reports them.
TEST(PairwiseSearchTest, SweepHookDropIsolatesOnePair) {
  const auto channels = MakeChannels(5);
  const std::vector<std::pair<int, int>> pairs = AllChannelPairs(3);
  for (const int restarts : {0, 4}) {
    SCOPED_TRACE("num_restarts " + std::to_string(restarts));
    TycosParams p = Params();
    p.num_restarts = restarts;
    p.num_threads = 2;
    const auto plain = SweepPairs(channels, pairs, p, TycosVariant::kLMN, 42,
                                  RunContext::None());
    ASSERT_TRUE(plain.ok()) << plain.status().message();
    PairwiseResult want = plain.value();
    want.entries.erase(
        std::remove_if(want.entries.begin(), want.entries.end(),
                       [](const PairwiseEntry& e) {
                         return e.a == 0 && e.b == 2;  // pair 1
                       }),
        want.entries.end());

    std::mutex mu;
    std::vector<std::pair<int64_t, bool>> finished;  // (pair, has outcome)
    PairSweepHooks hooks;
    hooks.unit_done = [](int64_t pair, int unit,
                         const Result<StopReason>& end) {
      return end.ok() && !(pair == 1 && unit == 0);
    };
    hooks.finish = [&](int64_t pair, const PairOutcome* outcome) {
      std::lock_guard<std::mutex> lock(mu);
      finished.emplace_back(pair, outcome != nullptr);
    };
    const auto got = SweepPairs(channels, pairs, p, TycosVariant::kLMN, 42,
                                RunContext::None(), hooks);
    ASSERT_TRUE(got.ok()) << got.status().message();

    std::sort(finished.begin(), finished.end());
    const std::vector<std::pair<int64_t, bool>> want_finished = {
        {0, true}, {1, false}, {2, true}};
    EXPECT_EQ(finished, want_finished);
    EXPECT_EQ(got.value().pairs_searched, 2);
    EXPECT_EQ(got.value().pairs_skipped, 1);
    EXPECT_TRUE(got.value().partial);
    EXPECT_EQ(got.value().stop_reason, StopReason::kCompleted);
    ExpectIdenticalResults(got.value(), want);
  }
}

TEST(PairwiseSearchTest, IncrementalVariantsMatchBatchBitForBit) {
  // The long-window energy sweep: 2 days of every simulated channel,
  // windows of 64-512 samples, so most scores go through the incremental
  // estimator. Incremental MI is an optimisation only: TYCOS_LMN must
  // return exactly TYCOS_LN's result, and TYCOS_LM exactly TYCOS_L's.
  datagen::EnergySimOptions o;
  o.days = 2;
  o.seed = 7;
  const datagen::EnergySimulator sim(o);
  std::vector<TimeSeries> channels;
  for (int ch = 0; ch < datagen::kNumEnergyChannels; ++ch) {
    channels.push_back(sim.Channel(static_cast<datagen::EnergyChannel>(ch)));
  }
  TycosParams p;
  p.sigma = 0.55;
  p.td_max = 6;
  p.delta = 2;
  p.num_restarts = 4;
  p.s_min = 64;
  p.s_max = 512;
  p.num_threads = 4;
  const PairwiseResult lmn = PairwiseSearch(channels, p, TycosVariant::kLMN);
  const PairwiseResult ln = PairwiseSearch(channels, p, TycosVariant::kLN);
  ASSERT_EQ(lmn.entries.size(), 36u);
  EXPECT_FALSE(lmn.Correlated().empty());
  ExpectIdenticalResults(lmn, ln);
  const PairwiseResult lm = PairwiseSearch(channels, p, TycosVariant::kLM);
  const PairwiseResult l = PairwiseSearch(channels, p, TycosVariant::kL);
  ExpectIdenticalResults(lm, l);
}

}  // namespace
}  // namespace tycos
