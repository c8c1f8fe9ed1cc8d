#include <cmath>
#include <cstdlib>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "datagen/clusters.h"
#include "datagen/energy_sim.h"
#include "datagen/relations.h"
#include "datagen/smart_city_sim.h"
#include "mi/ksg.h"
#include "mi/pearson.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::EnergyChannel;
using datagen::EnergySimOptions;
using datagen::EnergySimulator;
using datagen::kAllRelations;
using datagen::RelationType;
using datagen::SampleRelation;
using datagen::SegmentSpec;
using datagen::SmartCitySimOptions;
using datagen::SmartCitySimulator;
using datagen::SyntheticDataset;

class RelationSampleTest : public ::testing::TestWithParam<RelationType> {};

TEST_P(RelationSampleTest, OutputsAreZNormalized) {
  Rng rng(1);
  std::vector<double> xs, ys;
  SampleRelation(GetParam(), 500, rng, &xs, &ys);
  ASSERT_EQ(xs.size(), 500u);
  ASSERT_EQ(ys.size(), 500u);
  EXPECT_NEAR(Mean(xs), 0.0, 1e-9);
  EXPECT_NEAR(Mean(ys), 0.0, 1e-9);
  EXPECT_NEAR(Variance(xs), 1.0, 1e-9);
  EXPECT_NEAR(Variance(ys), 1.0, 1e-9);
}

TEST_P(RelationSampleTest, MiReflectsDependence) {
  Rng rng(2);
  std::vector<double> xs, ys;
  SampleRelation(GetParam(), 800, rng, &xs, &ys);
  const double mi = KsgMi(xs, ys);
  if (GetParam() == RelationType::kIndependent) {
    EXPECT_LT(mi, 0.1);
  } else {
    EXPECT_GT(mi, 0.5) << datagen::RelationTypeName(GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(AllRelations, RelationSampleTest,
                         ::testing::ValuesIn(kAllRelations),
                         [](const auto& info) {
                           return datagen::RelationTypeName(info.param);
                         });

TEST(RelationSampleTest, PccSeesOnlyLinearShapes) {
  Rng rng(3);
  std::vector<double> xs, ys;
  SampleRelation(RelationType::kLinear, 1000, rng, &xs, &ys);
  EXPECT_GT(std::fabs(PearsonCorrelation(xs, ys)), 0.9);
  SampleRelation(RelationType::kCircle, 1000, rng, &xs, &ys);
  EXPECT_LT(std::fabs(PearsonCorrelation(xs, ys)), 0.15);
  SampleRelation(RelationType::kSine, 1000, rng, &xs, &ys);
  EXPECT_LT(std::fabs(PearsonCorrelation(xs, ys)), 0.3);
}

TEST(ComposeDatasetTest, LayoutAndGroundTruth) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 100, 10},
       SegmentSpec{RelationType::kSine, 50, 20}},
      /*gap=*/30, /*seed=*/1);
  ASSERT_EQ(ds.planted.size(), 2u);
  EXPECT_EQ(ds.planted[0].x_start, 30);
  EXPECT_EQ(ds.planted[0].length, 100);
  EXPECT_EQ(ds.planted[0].delay, 10);
  EXPECT_EQ(ds.planted[1].x_start, 160);
  // n = gap + (100 + gap) + (50 + gap) + max_delay = 240 + 20.
  EXPECT_EQ(ds.pair.size(), 260);
}

TEST(ComposeDatasetTest, PlantedRegionIsCorrelatedAtItsDelay) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kQuadratic, 200, 40}}, /*gap=*/100,
      /*seed=*/2);
  const Window at_delay = ds.planted[0].AsWindow();
  Window wrong_delay = at_delay;
  wrong_delay.delay = 0;
  EXPECT_GT(KsgMi(ds.pair, at_delay), 1.0);
  EXPECT_LT(KsgMi(ds.pair, wrong_delay), 0.25);
}

TEST(ComposeDatasetTest, GapRegionsAreUncorrelated) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 100, 0}}, /*gap=*/200, /*seed=*/3);
  EXPECT_LT(KsgMi(ds.pair, Window(0, 180, 0)), 0.15);
}

TEST(ComposeDatasetTest, Deterministic) {
  const SyntheticDataset a = ComposeDataset(
      {SegmentSpec{RelationType::kCross, 80, 5}}, 50, /*seed=*/7);
  const SyntheticDataset b = ComposeDataset(
      {SegmentSpec{RelationType::kCross, 80, 5}}, 50, /*seed=*/7);
  EXPECT_EQ(a.pair.x().values(), b.pair.x().values());
  EXPECT_EQ(a.pair.y().values(), b.pair.y().values());
}

TEST(SyntheticWorkloadTest, VariantsProduceRequestedScale) {
  for (int variant = 1; variant <= 3; ++variant) {
    const SyntheticDataset ds = datagen::SyntheticWorkload(variant, 2000, 1);
    EXPECT_GT(ds.pair.size(), 1000) << "variant " << variant;
    EXPECT_LT(ds.pair.size(), 4000) << "variant " << variant;
    EXPECT_FALSE(ds.planted.empty());
  }
}

TEST(EnergySimTest, ChannelsHaveExpectedLength) {
  EnergySimOptions opt;
  opt.days = 3;
  opt.samples_per_hour = 12;
  EnergySimulator sim(opt);
  EXPECT_EQ(sim.length(), 3 * 24 * 12);
  for (int c = 0; c < datagen::kNumEnergyChannels; ++c) {
    EXPECT_EQ(sim.Channel(static_cast<EnergyChannel>(c)).size(),
              sim.length());
  }
}

TEST(EnergySimTest, PowerIsNonNegative) {
  EnergySimOptions opt;
  opt.days = 2;
  EnergySimulator sim(opt);
  const auto& kitchen = sim.Channel(EnergyChannel::kKitchen);
  for (int64_t i = 0; i < kitchen.size(); ++i) {
    EXPECT_GE(kitchen[i], 0.0);
  }
}

TEST(EnergySimTest, LaggedChannelsShareInformation) {
  EnergySimOptions opt;
  opt.days = 10;
  EnergySimulator sim(opt);
  const SeriesPair washer_dryer =
      sim.Pair(EnergyChannel::kClothesWasher, EnergyChannel::kDryer);
  // Whole-series MI at τ=0 is modest, but the best lag in 10–30 min should
  // carry clear dependence in the active regions. Use a coarse check: MI
  // over the whole pair at some positive delay beats independence.
  double best = 0.0;
  for (int64_t lag = 0; lag <= 30; lag += 5) {
    const Window w(0, washer_dryer.size() - 1 - 30, lag);
    best = std::max(best, KsgMi(washer_dryer, w, {}));
  }
  EXPECT_GT(best, 0.05);
}

TEST(EnergySimTest, Deterministic) {
  EnergySimOptions opt;
  opt.days = 2;
  opt.seed = 123;
  EnergySimulator a(opt), b(opt);
  EXPECT_EQ(a.Channel(EnergyChannel::kKitchen).values(),
            b.Channel(EnergyChannel::kKitchen).values());
}

TEST(SmartCitySimTest, ChannelsHaveExpectedLength) {
  SmartCitySimOptions opt;
  opt.days = 4;
  opt.samples_per_hour = 4;
  SmartCitySimulator sim(opt);
  EXPECT_EQ(sim.length(), 4 * 24 * 4);
  for (int c = 0; c < datagen::kNumCityChannels; ++c) {
    EXPECT_EQ(sim.Channel(static_cast<datagen::CityChannel>(c)).size(),
              sim.length());
  }
}

TEST(SmartCitySimTest, CountsAreNonNegativeIntegers) {
  SmartCitySimOptions opt;
  opt.days = 2;
  SmartCitySimulator sim(opt);
  const auto& col = sim.Channel(datagen::CityChannel::kCollisions);
  for (int64_t i = 0; i < col.size(); ++i) {
    EXPECT_GE(col[i], 0.0);
    EXPECT_DOUBLE_EQ(col[i], std::floor(col[i]));
  }
}

TEST(SmartCitySimTest, RainDrivesCollisionsWithLag) {
  SmartCitySimOptions opt;
  opt.days = 20;
  SmartCitySimulator sim(opt);
  const SeriesPair pair = sim.Pair(datagen::CityChannel::kPrecipitation,
                                   datagen::CityChannel::kCollisions);
  double best = 0.0;
  int64_t best_lag = 0;
  for (int64_t lag = 0; lag <= 10; ++lag) {
    std::vector<double> xs, ys;
    ExtractSamples(pair, Window(0, pair.size() - 1 - 10, lag), &xs, &ys);
    internal::ApplyTieJitter(&xs, 1e-6, /*salt=*/1);  // counts are discrete
    internal::ApplyTieJitter(&ys, 1e-6, /*salt=*/2);
    const double mi = KsgMi(xs, ys);
    if (mi > best) {
      best = mi;
      best_lag = lag;
    }
  }
  EXPECT_GT(best, 0.05);
  EXPECT_GT(best_lag, 0);  // the response is lagged, not instantaneous
}

datagen::ClusterGenOptions ClusterOptions() {
  datagen::ClusterGenOptions opt;
  opt.num_channels = 20;
  opt.num_clusters = 3;
  opt.channels_per_cluster = 3;
  opt.length = 1024;
  opt.max_delay = 6;
  opt.seed = 5;
  return opt;
}

TEST(CorrelatedClustersTest, PlantsTheAdvertisedPairs) {
  const auto ds = datagen::MakeCorrelatedClusters(ClusterOptions());
  ASSERT_TRUE(ds.ok()) << ds.status().message();
  // 3 clusters × C(3, 2) intra-cluster pairs.
  EXPECT_EQ(ds.value().pairs.size(), 9u);
  EXPECT_EQ(ds.value().channels.size(), 20u);
  for (const datagen::PlantedClusterPair& p : ds.value().pairs) {
    ASSERT_LT(p.a, p.b);
    EXPECT_EQ(ds.value().cluster_of[static_cast<size_t>(p.a)],
              ds.value().cluster_of[static_cast<size_t>(p.b)]);
    EXPECT_EQ(p.delay, ds.value().delay_of[static_cast<size_t>(p.b)] -
                           ds.value().delay_of[static_cast<size_t>(p.a)]);
    EXPECT_LE(std::llabs(p.delay), 6);
  }
}

TEST(CorrelatedClustersTest, ChannelsAreZNormalized) {
  const auto ds = datagen::MakeCorrelatedClusters(ClusterOptions());
  ASSERT_TRUE(ds.ok());
  for (const TimeSeries& c : ds.value().channels) {
    EXPECT_NEAR(Mean(c.values()), 0.0, 1e-9);
    EXPECT_NEAR(Variance(c.values()), 1.0, 1e-6);
    EXPECT_FALSE(c.name().empty());
  }
}

TEST(CorrelatedClustersTest, PlantedPairsCorrelateAtTheirDelay) {
  auto opt = ClusterOptions();
  opt.member_noise = 0.25;
  const auto ds = datagen::MakeCorrelatedClusters(opt);
  ASSERT_TRUE(ds.ok());
  // Population r at alignment is 1 / (1 + σ²) ≈ 0.94 — insist on most of
  // that surviving the finite sample.
  for (const datagen::PlantedClusterPair& p : ds.value().pairs) {
    const TimeSeries& a = ds.value().channels[static_cast<size_t>(p.a)];
    const TimeSeries& b = ds.value().channels[static_cast<size_t>(p.b)];
    // b[t] tracks a[t - delay]: align by shifting the later series.
    const int64_t d = p.delay;
    const int64_t n = a.size() - std::llabs(d);
    std::vector<double> xs, ys;
    for (int64_t t = 0; t < n; ++t) {
      xs.push_back(a.values()[static_cast<size_t>(d > 0 ? t : t - d)]);
      ys.push_back(b.values()[static_cast<size_t>(d > 0 ? t + d : t)]);
    }
    EXPECT_GT(PearsonCorrelation(xs, ys), 0.85)
        << "pair (" << p.a << ", " << p.b << ") at delay " << d;
  }
}

TEST(CorrelatedClustersTest, BackgroundChannelsStayUncorrelated) {
  const auto ds = datagen::MakeCorrelatedClusters(ClusterOptions());
  ASSERT_TRUE(ds.ok());
  std::vector<int> background;
  for (size_t i = 0; i < ds.value().cluster_of.size(); ++i) {
    if (ds.value().cluster_of[i] < 0) background.push_back(static_cast<int>(i));
  }
  ASSERT_GE(background.size(), 2u);
  for (size_t i = 0; i + 1 < background.size(); ++i) {
    const double r = PearsonCorrelation(
        ds.value().channels[static_cast<size_t>(background[i])].values(),
        ds.value().channels[static_cast<size_t>(background[i + 1])].values());
    EXPECT_LT(std::fabs(r), 0.2);
  }
}

TEST(CorrelatedClustersTest, DeterministicForFixedOptions) {
  const auto a = datagen::MakeCorrelatedClusters(ClusterOptions());
  const auto b = datagen::MakeCorrelatedClusters(ClusterOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < a.value().channels.size(); ++i) {
    EXPECT_EQ(a.value().channels[i].values(), b.value().channels[i].values());
  }
}

TEST(CorrelatedClustersTest, RejectsInconsistentOptions) {
  auto opt = ClusterOptions();
  opt.channels_per_cluster = 10;  // 30 members > 20 channels
  EXPECT_FALSE(datagen::MakeCorrelatedClusters(opt).ok());
  opt = ClusterOptions();
  opt.max_delay = opt.length;
  EXPECT_FALSE(datagen::MakeCorrelatedClusters(opt).ok());
  opt = ClusterOptions();
  opt.channels_per_cluster = 1;  // plants no pair
  EXPECT_FALSE(datagen::MakeCorrelatedClusters(opt).ok());
}

}  // namespace
}  // namespace tycos
