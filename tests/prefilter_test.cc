#include "search/prefilter.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "datagen/clusters.h"
#include "mi/pearson.h"

namespace tycos {
namespace {

using datagen::ClusteredDataset;
using datagen::ClusterGenOptions;
using datagen::MakeCorrelatedClusters;

ClusteredDataset MakeDataset(uint64_t seed, int channels = 24,
                             int clusters = 3, int members = 3,
                             int64_t length = 512, int64_t max_delay = 6) {
  ClusterGenOptions opt;
  opt.num_channels = channels;
  opt.num_clusters = clusters;
  opt.channels_per_cluster = members;
  opt.length = length;
  opt.max_delay = max_delay;
  opt.member_noise = 0.3;
  opt.seed = seed;
  auto ds = MakeCorrelatedClusters(opt);
  EXPECT_TRUE(ds.ok()) << ds.status().message();
  return std::move(ds.value());
}

PrefilterParams SmallParams() {
  PrefilterParams p;
  p.window = 64;
  p.hop = 32;
  p.td_max = 6;
  p.paa_segments = 8;
  p.svd_dims = 2;
  return p;
}

// Brute-force maximum |Pearson r| over the cascade's recall-guarantee
// family: (query side a or b) × (hop-grid start on the query side) ×
// (every window start within ±td of it on the other side), at window
// length n. The property tests compare the cascade against this oracle.
double BestFamilyPearson(const std::vector<TimeSeries>& channels, int a,
                         int b, const PrefilterParams& p) {
  const int64_t n = p.window;
  const int64_t last_start = channels[0].size() - n;
  double best = 0.0;
  for (int dir = 0; dir < 2; ++dir) {
    const TimeSeries& qs = channels[static_cast<size_t>(dir == 0 ? a : b)];
    const TimeSeries& ts = channels[static_cast<size_t>(dir == 0 ? b : a)];
    for (int64_t g = 0; g * p.hop <= last_start; ++g) {
      const int64_t qstart = g * p.hop;
      const std::vector<double> query = qs.Slice(qstart, qstart + n - 1);
      const int64_t lo = std::max<int64_t>(qstart - p.td_max, 0);
      const int64_t hi = std::min<int64_t>(qstart + p.td_max, last_start);
      for (int64_t s = lo; s <= hi; ++s) {
        const double r =
            PearsonCorrelation(query, ts.Slice(s, s + n - 1));
        best = std::max(best, std::fabs(r));
      }
    }
  }
  return best;
}

bool Survived(const PrefilterOutcome& out, int a, int b) {
  for (const PrefilterSurvivor& s : out.survivors) {
    if (s.a == a && s.b == b) return true;
  }
  return false;
}

// The channels with `offset` added to every sample. Pearson r does not
// change under a shift, so neither may the cascade's recall.
std::vector<TimeSeries> Shifted(const std::vector<TimeSeries>& channels,
                                double offset) {
  std::vector<TimeSeries> out;
  for (const TimeSeries& ts : channels) {
    std::vector<double> v = ts.values();
    for (double& x : v) x += offset;
    out.emplace_back(std::move(v), ts.name());
  }
  return out;
}

// Offsets from none to far beyond each window's spread (about 1 here),
// where one-pass variances and uncentred dot products cancel.
const double kOffsets[] = {0.0, 1e4, 1e6, 1e8};

// The pairs (a < b) whose best guarantee-family window has |r| >= T.
std::vector<std::pair<int, int>> QualifyingPairs(
    const std::vector<TimeSeries>& channels, const PrefilterParams& p,
    double threshold) {
  std::vector<std::pair<int, int>> out;
  const int n = static_cast<int>(channels.size());
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (BestFamilyPearson(channels, a, b, p) >= threshold) {
        out.emplace_back(a, b);
      }
    }
  }
  return out;
}

// The tentpole property: across seeds, thresholds and constant offsets,
// the cascade NEVER prunes a pair whose best guarantee-family window has
// |Pearson r| >= T. The oracle scores the unshifted channels. Stage 1
// z-normalizes every window from the same two-pass statistics as stage 2,
// so a shift moves none of its candidates either; at T = 0.9 it prunes
// some pairs, so its count can show a moved candidate.
TEST(PrefilterRecallTest, NeverPrunesAPairAboveThreshold) {
  for (const double threshold : {0.4, 0.9}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      const ClusteredDataset ds = MakeDataset(seed);
      const PrefilterParams p = SmallParams();
      const auto qualifying = QualifyingPairs(ds.channels, p, threshold);
      ASSERT_FALSE(qualifying.empty());
      const auto unshifted =
          RunPrefilter(ds.channels, p, threshold, RunContext());
      ASSERT_TRUE(unshifted.ok()) << unshifted.status().message();
      for (const double offset : kOffsets) {
        const auto out = RunPrefilter(Shifted(ds.channels, offset), p,
                                      threshold, RunContext());
        ASSERT_TRUE(out.ok()) << out.status().message();
        ASSERT_FALSE(out.value().stop.has_value());
        for (const auto& [a, b] : qualifying) {
          EXPECT_TRUE(Survived(out.value(), a, b))
              << "seed " << seed << ", offset " << offset << ": pair (" << a
              << ", " << b << ") was pruned at T = " << threshold;
        }
        EXPECT_EQ(out.value().stats.stage1_candidates,
                  unshifted.value().stats.stage1_candidates)
            << "seed " << seed << ", offset " << offset << ", T = "
            << threshold;
      }
    }
  }
}

// A wide delay range (bands of up to 81 alignments) must uphold the same
// recall guarantee, at every offset. The second dataset lost qualifying
// pairs at offset 1e6 while stage 2 correlated uncentred series.
TEST(PrefilterRecallTest, WideDelayBandStillRecalls) {
  struct WideCase {
    ClusteredDataset ds;
    double threshold;
  };
  const WideCase cases[] = {
      {MakeDataset(31, /*channels=*/10, /*clusters=*/2, /*members=*/2,
                   /*length=*/384, /*max_delay=*/6),
       0.4},
      {MakeDataset(1), 0.5},
  };
  PrefilterParams p = SmallParams();
  p.td_max = 40;  // bands of 41 to 81 alignments
  for (const WideCase& c : cases) {
    const auto qualifying = QualifyingPairs(c.ds.channels, p, c.threshold);
    ASSERT_FALSE(qualifying.empty());
    for (const double offset : kOffsets) {
      const auto out = RunPrefilter(Shifted(c.ds.channels, offset), p,
                                    c.threshold, RunContext());
      ASSERT_TRUE(out.ok()) << out.status().message();
      for (const auto& [a, b] : qualifying) {
        EXPECT_TRUE(Survived(out.value(), a, b))
            << "offset " << offset << ": pair (" << a << ", " << b
            << ") was pruned at T = " << c.threshold;
      }
    }
  }
}

// Anti-correlated pairs (r <= -T) must survive too: the cascade probes
// both sketch signs and stage 2 scores |r|.
TEST(PrefilterRecallTest, KeepsAntiCorrelatedPairs) {
  const ClusteredDataset ds = MakeDataset(7, /*channels=*/8, /*clusters=*/1,
                                          /*members=*/2);
  std::vector<TimeSeries> channels = ds.channels;
  ASSERT_EQ(ds.pairs.size(), 1u);
  const int flip = ds.pairs[0].b;
  std::vector<double> negated = channels[static_cast<size_t>(flip)].values();
  for (double& v : negated) v = -v;
  channels[static_cast<size_t>(flip)] =
      TimeSeries(std::move(negated), "neg");

  const PrefilterParams p = SmallParams();
  const auto out = RunPrefilter(channels, p, 0.5, RunContext());
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_TRUE(Survived(out.value(), ds.pairs[0].a, ds.pairs[0].b));
}

// Every planted intra-cluster pair clears the oracle, so the cascade must
// keep all of them while pruning a healthy share of the background pairs.
TEST(PrefilterTest, KeepsPlantedPairsAndPrunesBackground) {
  const ClusteredDataset ds = MakeDataset(11);
  const PrefilterParams p = SmallParams();
  const auto out = RunPrefilter(ds.channels, p, 0.5, RunContext());
  ASSERT_TRUE(out.ok()) << out.status().message();
  for (const datagen::PlantedClusterPair& pair : ds.pairs) {
    EXPECT_TRUE(Survived(out.value(), pair.a, pair.b))
        << "planted pair (" << pair.a << ", " << pair.b << ") pruned";
  }
  const PrefilterStats& stats = out.value().stats;
  EXPECT_EQ(stats.pairs_total, 24 * 23 / 2);
  EXPECT_EQ(stats.stage2_survivors,
            static_cast<int64_t>(out.value().survivors.size()));
  EXPECT_LE(stats.stage2_survivors, stats.stage1_candidates);
  EXPECT_GT(stats.PruningRate(), 0.5);
}

// best_pearson is a lower bound on the oracle (stage 2 stops scanning at
// the threshold), and never exceeds it beyond rounding.
TEST(PrefilterTest, SurvivorEvidenceIsBoundedByTheOracle) {
  const ClusteredDataset ds = MakeDataset(13);
  const PrefilterParams p = SmallParams();
  const auto out = RunPrefilter(ds.channels, p, 0.5, RunContext());
  ASSERT_TRUE(out.ok()) << out.status().message();
  ASSERT_FALSE(out.value().survivors.empty());
  for (const PrefilterSurvivor& s : out.value().survivors) {
    const double oracle = BestFamilyPearson(ds.channels, s.a, s.b, p);
    EXPECT_LE(s.best_pearson, oracle + 1e-6);
    EXPECT_GE(s.best_pearson, 0.5 - 1e-6);
  }
}

// Survivors arrive in canonical (a, b) order with a < b.
TEST(PrefilterTest, SurvivorsAreCanonicallyOrdered) {
  const ClusteredDataset ds = MakeDataset(17);
  const auto out =
      RunPrefilter(ds.channels, SmallParams(), 0.5, RunContext());
  ASSERT_TRUE(out.ok()) << out.status().message();
  const auto pairs = out.value().PairList();
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_LT(pairs[i].first, pairs[i].second);
    if (i > 0) {
      EXPECT_LT(pairs[i - 1], pairs[i]);
    }
  }
}

// The survivor list (and its evidence) is bit-identical at 1, 2, and 8
// threads — the determinism contract the durable layer persists against.
TEST(PrefilterTest, SurvivorsAreBitIdenticalAcrossThreadCounts) {
  const ClusteredDataset ds = MakeDataset(19);
  PrefilterParams p = SmallParams();
  p.num_threads = 1;
  const auto base = RunPrefilter(ds.channels, p, 0.45, RunContext());
  ASSERT_TRUE(base.ok()) << base.status().message();
  for (int threads : {2, 8}) {
    p.num_threads = threads;
    const auto out = RunPrefilter(ds.channels, p, 0.45, RunContext());
    ASSERT_TRUE(out.ok()) << out.status().message();
    ASSERT_EQ(out.value().survivors.size(), base.value().survivors.size())
        << "at " << threads << " threads";
    for (size_t i = 0; i < base.value().survivors.size(); ++i) {
      EXPECT_EQ(out.value().survivors[i].a, base.value().survivors[i].a);
      EXPECT_EQ(out.value().survivors[i].b, base.value().survivors[i].b);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(out.value().survivors[i].best_pearson,
                base.value().survivors[i].best_pearson)
          << "at " << threads << " threads, survivor " << i;
    }
  }
}

// FNV-1a over the bits of every survivor's best_pearson, in survivor order.
uint64_t EvidenceDigest(const PrefilterOutcome& out) {
  uint64_t h = kFnv1aBasis;
  for (const PrefilterSurvivor& s : out.survivors) {
    uint64_t bits = 0;
    std::memcpy(&bits, &s.best_pearson, sizeof(bits));
    h = Fnv1a(&bits, sizeof(bits), h);
  }
  return h;
}

// The pair list as a C++ literal, so a failure message can be pasted back.
std::string PairLiteral(const std::vector<std::pair<int, int>>& pairs) {
  std::string s = "{";
  for (const auto& [a, b] : pairs) {
    s += "{" + std::to_string(a) + ", " + std::to_string(b) + "}, ";
  }
  return s + "}";
}

// Stage 2's output pinned across commits. The tests above compare the
// cascade with an oracle (to 1e-6) and with itself; these literals catch a
// change that moves a survivor, or a best_pearson by one ulp. td_max 0, 6
// and 8 give bands of 1, 7/13 and 9/17 alignments, and td_max 40 gives 41
// at the series ends and 73-81 elsewhere; the sliding-dot kernel scores
// them all. A change that moves stage 2's arithmetic on purpose
// re-records the digests and says so; the survivor pairs move only with
// recall.
TEST(PrefilterPinTest, StageTwoMatchesRecordedSurvivorsAndEvidence) {
  struct PinCase {
    uint64_t seed;
    int64_t td_max;
    std::vector<std::pair<int, int>> survivors;
    uint64_t evidence_digest;
  };
  const PinCase cases[] = {
      {37, 0, {{0, 4}, {0, 6}, {0, 8}, {1, 4}, {1, 6}, {1, 7}, {1, 8}, {1, 11},
               {4, 6}, {4, 8}, {4, 11}, {6, 11}, {8, 11}},
       0xc4991b35c3bdef7aull},
      {37, 6, {{0, 1}, {0, 4}, {0, 6}, {0, 8}, {0, 11}, {1, 3}, {1, 4}, {1, 6},
               {1, 7}, {1, 8}, {1, 11}, {3, 6}, {4, 6}, {4, 8}, {4, 11}, {6, 7},
               {6, 8}, {6, 11}, {7, 11}, {8, 11}},
       0x48faad1e3b0ae116ull},
      {37, 8, {{0, 1}, {0, 4}, {0, 6}, {0, 8}, {0, 11}, {1, 2}, {1, 3}, {1, 4},
               {1, 6}, {1, 7}, {1, 8}, {1, 11}, {2, 6}, {3, 6}, {4, 6}, {4, 8},
               {4, 9}, {4, 11}, {5, 11}, {6, 7}, {6, 8}, {6, 11}, {7, 11},
               {8, 11}},
       0xdb4a542a1dabbc5aull},
      {37, 40, {{0, 1}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 8}, {0, 9}, {0, 11},
                {1, 2}, {1, 3}, {1, 4}, {1, 6}, {1, 7}, {1, 8}, {1, 9}, {1, 11},
                {2, 6}, {2, 11}, {3, 4}, {3, 6}, {3, 8}, {3, 11}, {4, 5},
                {4, 6}, {4, 8}, {4, 9}, {4, 11}, {5, 8}, {5, 11}, {6, 7},
                {6, 8}, {6, 11}, {7, 11}, {8, 10}, {8, 11}, {9, 11}, {10, 11}},
       0x77475600ead184f7ull},
      {41, 0, {{3, 5}, {3, 7}, {3, 8}, {3, 10}, {3, 11}, {5, 7}, {5, 10},
               {5, 11}, {7, 8}, {7, 10}, {7, 11}, {8, 10}, {8, 11}, {10, 11}},
       0xfe1e37d76538eedeull},
      {41, 6, {{0, 3}, {3, 5}, {3, 7}, {3, 8}, {3, 10}, {3, 11}, {5, 7}, {5, 8},
               {5, 10}, {5, 11}, {7, 8}, {7, 10}, {7, 11}, {8, 10}, {8, 11},
               {10, 11}},
       0xcf6d1b40617b733aull},
  };
  for (const PinCase& c : cases) {
    const ClusteredDataset ds =
        MakeDataset(c.seed, /*channels=*/12, /*clusters=*/2, /*members=*/3);
    PrefilterParams p = SmallParams();
    p.td_max = c.td_max;
    const auto out = RunPrefilter(ds.channels, p, 0.5, RunContext());
    ASSERT_TRUE(out.ok()) << out.status().message();
    ASSERT_FALSE(out.value().stop.has_value());
    const auto pairs = out.value().PairList();
    EXPECT_EQ(pairs, c.survivors)
        << "seed " << c.seed << " td_max " << c.td_max << ": "
        << PairLiteral(pairs);
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016" PRIx64 "ull",
                  EvidenceDigest(out.value()));
    EXPECT_EQ(EvidenceDigest(out.value()), c.evidence_digest)
        << "seed " << c.seed << " td_max " << c.td_max << ": " << hex;
  }
}

// A delay range past the series' last window start adds no alignment:
// every band is already the whole series, so td_max 1e9 and 2^40 must
// give the survivors and best_pearson bits of td_max = last_start, and
// must size their work by the series, not by td_max.
TEST(PrefilterTest, DelayRangeBeyondTheSeriesMatchesTheWidestBand) {
  const ClusteredDataset ds =
      MakeDataset(37, /*channels=*/12, /*clusters=*/2, /*members=*/3);
  PrefilterParams p = SmallParams();
  p.td_max = ds.channels[0].size() - p.window;  // last_start: 448
  const auto widest = RunPrefilter(ds.channels, p, 0.5, RunContext());
  ASSERT_TRUE(widest.ok()) << widest.status().message();
  ASSERT_FALSE(widest.value().stop.has_value());
  ASSERT_FALSE(widest.value().survivors.empty());
  for (const int64_t td_max : {int64_t{1000000000}, int64_t{1} << 40}) {
    p.td_max = td_max;
    const auto out = RunPrefilter(ds.channels, p, 0.5, RunContext());
    ASSERT_TRUE(out.ok()) << out.status().message();
    ASSERT_FALSE(out.value().stop.has_value());
    EXPECT_EQ(out.value().PairList(), widest.value().PairList())
        << "td_max " << td_max;
    EXPECT_EQ(EvidenceDigest(out.value()), EvidenceDigest(widest.value()))
        << "td_max " << td_max;
  }
}

TEST(PrefilterTest, CancelledContextReportsStopNotSurvivors) {
  const ClusteredDataset ds = MakeDataset(23);
  RunContext ctx;
  ctx.RequestCancel();
  const auto out = RunPrefilter(ds.channels, SmallParams(), 0.5, ctx);
  ASSERT_TRUE(out.ok()) << out.status().message();
  ASSERT_TRUE(out.value().stop.has_value());
  EXPECT_EQ(*out.value().stop, StopReason::kCancelled);
}

TEST(PrefilterTest, ValidatesParams) {
  const ClusteredDataset ds = MakeDataset(29, /*channels=*/4, /*clusters=*/1,
                                          /*members=*/2);
  PrefilterParams p = SmallParams();
  p.td_max = -1;  // RunPrefilter requires an explicit delay range
  EXPECT_FALSE(RunPrefilter(ds.channels, p, 0.5, RunContext()).ok());

  p = SmallParams();
  p.window = 100000;
  EXPECT_FALSE(RunPrefilter(ds.channels, p, 0.5, RunContext()).ok());

  p = SmallParams();
  p.svd_dims = p.paa_segments + 1;
  EXPECT_FALSE(RunPrefilter(ds.channels, p, 0.5, RunContext()).ok());

  p = SmallParams();
  EXPECT_FALSE(RunPrefilter(ds.channels, p, 0.0, RunContext()).ok());
  EXPECT_FALSE(RunPrefilter(ds.channels, p, 1.5, RunContext()).ok());
}

TEST(PrefilterTest, ResolvesThresholdFromSigma) {
  PrefilterParams p;
  EXPECT_DOUBLE_EQ(ResolvePearsonThreshold(p, 0.5), 0.75 * 0.5);
  p.pearson_threshold = 0.9;  // explicit wins over the derivation
  EXPECT_DOUBLE_EQ(ResolvePearsonThreshold(p, 0.5), 0.9);
  p.pearson_threshold = 0.0;
  p.mi_conservativeness = 1.0;
  EXPECT_DOUBLE_EQ(ResolvePearsonThreshold(p, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(ResolvePearsonThreshold(p, 0.0), 1e-6);  // clamped
}

}  // namespace
}  // namespace tycos
