#include "mi/ksg.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/energy_sim.h"
#include "datagen/relations.h"
#include "mi/histogram_mi.h"
#include "mi/incremental_ksg.h"
#include "obs/metrics.h"
#include "search/tycos.h"

namespace tycos {
namespace {

// Correlated bivariate Gaussian sample with correlation rho.
void GaussianPair(int n, double rho, uint64_t seed, std::vector<double>* xs,
                  std::vector<double>* ys) {
  Rng rng(seed);
  xs->resize(static_cast<size_t>(n));
  ys->resize(static_cast<size_t>(n));
  const double c = std::sqrt(1.0 - rho * rho);
  for (int i = 0; i < n; ++i) {
    const double a = rng.Normal();
    const double b = rng.Normal();
    (*xs)[static_cast<size_t>(i)] = a;
    (*ys)[static_cast<size_t>(i)] = rho * a + c * b;
  }
}

// Exact MI of a bivariate Gaussian: -0.5 ln(1 - rho²).
double GaussianMi(double rho) { return -0.5 * std::log(1.0 - rho * rho); }

TEST(KsgMiTest, IndependentDataHasNearZeroMi) {
  std::vector<double> xs, ys;
  GaussianPair(2000, 0.0, 1, &xs, &ys);
  const double mi = KsgMi(xs, ys);
  EXPECT_NEAR(mi, 0.0, 0.05);
}

class KsgGaussianTest : public ::testing::TestWithParam<double> {};

TEST_P(KsgGaussianTest, RecoversAnalyticGaussianMi) {
  const double rho = GetParam();
  std::vector<double> xs, ys;
  GaussianPair(4000, rho, 42, &xs, &ys);
  const double mi = KsgMi(xs, ys);
  EXPECT_NEAR(mi, GaussianMi(rho), 0.08) << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(RhoSweep, KsgGaussianTest,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 0.9, -0.5,
                                           -0.8));

TEST(KsgMiTest, StrongFunctionalRelationHasHighMi) {
  Rng rng(7);
  std::vector<double> xs(1000), ys(1000);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.Uniform(-2, 2);
    ys[i] = std::sin(3.0 * xs[i]) + 0.01 * rng.Normal();
  }
  EXPECT_GT(KsgMi(xs, ys), 1.5);  // near-deterministic, non-monotone
}

TEST(KsgMiTest, InvariantUnderMonotoneTransformOfX) {
  std::vector<double> xs, ys;
  GaussianPair(2000, 0.7, 3, &xs, &ys);
  const double base = KsgMi(xs, ys);
  std::vector<double> ex(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) ex[i] = std::exp(xs[i]);
  const double transformed = KsgMi(ex, ys);
  // MI is invariant under smooth monotone reparameterization; KSG tracks
  // this closely.
  EXPECT_NEAR(base, transformed, 0.1);
}

TEST(KsgMiTest, BackendsAgreeExactly) {
  std::vector<double> xs, ys;
  GaussianPair(800, 0.6, 9, &xs, &ys);
  KsgOptions brute, kd, grid;
  brute.backend = KnnBackend::kBrute;
  kd.backend = KnnBackend::kKdTree;
  grid.backend = KnnBackend::kGrid;
  const double reference = KsgMi(xs, ys, brute);
  EXPECT_DOUBLE_EQ(reference, KsgMi(xs, ys, kd));
  EXPECT_DOUBLE_EQ(reference, KsgMi(xs, ys, grid));
}

TEST(KsgMiTest, TooFewSamplesReturnsZero) {
  std::vector<double> xs = {1, 2, 3};
  std::vector<double> ys = {4, 5, 6};
  KsgOptions o;
  o.k = 4;
  EXPECT_DOUBLE_EQ(KsgMi(xs, ys, o), 0.0);
}

TEST(KsgMiTest, LargerKStillTracksGaussianMi) {
  std::vector<double> xs, ys;
  GaussianPair(3000, 0.8, 12, &xs, &ys);
  KsgOptions o;
  o.k = 10;
  EXPECT_NEAR(KsgMi(xs, ys, o), GaussianMi(0.8), 0.1);
}

TEST(KsgMiTest, WindowOverloadRespectsDelay) {
  // Relation planted at delay 5: y[i+5] = x[i].
  Rng rng(21);
  const int64_t n = 400;
  std::vector<double> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = rng.Uniform(0, 1);
    y[static_cast<size_t>(i)] = rng.Uniform(0, 1);
  }
  for (int64_t i = 0; i + 5 < n; ++i) {
    y[static_cast<size_t>(i + 5)] = x[static_cast<size_t>(i)];
  }
  SeriesPair pair{TimeSeries(x), TimeSeries(y)};
  const double aligned = KsgMi(pair, Window(50, 250, 5));
  const double misaligned = KsgMi(pair, Window(50, 250, 0));
  EXPECT_GT(aligned, 2.0);
  EXPECT_LT(misaligned, 0.3);
}

TEST(KsgMiTest, TieJitterMakesDiscreteDataFinite) {
  // Identical discrete values create massive ties; jitter must keep the
  // estimator finite and roughly correct (X determines Y: high MI).
  std::vector<double> xs, ys;
  Rng rng(33);
  for (int i = 0; i < 600; ++i) {
    const double v = static_cast<double>(rng.UniformInt(0, 3));
    xs.push_back(v);
    ys.push_back(v);
  }
  internal::ApplyTieJitter(&xs, 1e-6, /*salt=*/1);
  internal::ApplyTieJitter(&ys, 1e-6, /*salt=*/2);
  const double mi = KsgMi(xs, ys);
  EXPECT_TRUE(std::isfinite(mi));
  EXPECT_GT(mi, 0.8);  // H(X) = ln 4 ≈ 1.39 is the ceiling
}

TEST(KsgMiTest, AgreesWithHistogramEstimatorOnStrongRelation) {
  std::vector<double> xs, ys;
  GaussianPair(4000, 0.9, 5, &xs, &ys);
  const double ksg = KsgMi(xs, ys);
  const double hist = HistogramMi(xs, ys);
  // Both should land near the analytic 0.830; histogram is biased but the
  // two independent estimators must agree to ~25%.
  EXPECT_NEAR(ksg, hist, 0.25 * std::max(ksg, hist));
}

// A search sends every kNN query to brute force, at any window size: the
// batch estimator through one KnnExtentsAll call per window and the
// incremental estimator through BruteKnnSelect. s_min 260 puts every batch
// window and every incremental rebuild above 256 samples, where both once
// switched to the k-d tree.
TEST(KsgMiTest, SearchSendsEveryKnnQueryToBruteForce) {
  const datagen::SyntheticDataset ds = datagen::ComposeDataset(
      {datagen::SegmentSpec{datagen::RelationType::kLinear, 400, 3}},
      /*gap=*/300, /*seed=*/17);
  ASSERT_GE(ds.pair.size(), 1000);
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 260;
  p.s_max = 360;
  p.td_max = 4;
  p.delta = 8;
  p.max_idle = 4;
  for (const TycosVariant variant : {TycosVariant::kL, TycosVariant::kLMN}) {
    const obs::MetricsSnapshot before = obs::Snapshot();
    Tycos search(ds.pair, p, variant);
    search.Run();
    const obs::MetricsSnapshot after = obs::Snapshot();
    const auto moved = [&](const char* name) {
      return after.CounterValue(name) - before.CounterValue(name);
    };
    const char* name = TycosVariantName(variant);
    EXPECT_GT(search.stats().mi_evaluations, 0) << name;
    EXPECT_GT(moved("knn.brute.queries"), 0) << name;
    EXPECT_EQ(moved("knn.kd_tree.queries"), 0) << name;
    EXPECT_EQ(moved("knn.grid.queries"), 0) << name;
    if (variant == TycosVariant::kLMN) {
      EXPECT_GT(moved("incremental.full_rebuilds"), 0);
    }
  }
}

TEST(NormalizedMiTest, BoundsRespected) {
  std::vector<double> xs, ys;
  GaussianPair(1000, 0.9, 8, &xs, &ys);
  for (const auto mode : {MiNormalization::kEntropyRatio,
                          MiNormalization::kCorrelationCoefficient}) {
    const double v = NormalizedMi(xs, ys, {}, mode);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(NormalizedMiTest, OrdersRelationsByStrength) {
  std::vector<double> x0, y0, x1, y1;
  GaussianPair(1500, 0.0, 10, &x0, &y0);
  GaussianPair(1500, 0.95, 10, &x1, &y1);
  EXPECT_LT(NormalizedMi(x0, y0), 0.1);
  EXPECT_GT(NormalizedMi(x1, y1), NormalizedMi(x0, y0) + 0.2);
}

TEST(NormalizedMiTest, CorrelationCoefficientMatchesGaussianRho) {
  // sqrt(1 - exp(-2 I)) recovers |rho| exactly for Gaussians.
  std::vector<double> xs, ys;
  GaussianPair(4000, 0.7, 11, &xs, &ys);
  const double r = NormalizedMi(
      xs, ys, {}, MiNormalization::kCorrelationCoefficient,
      /*small_sample_penalty=*/0.0);
  EXPECT_NEAR(r, 0.7, 0.06);
}

TEST(ApplyTieJitterTest, DeterministicAndBounded) {
  std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> b = a;
  internal::ApplyTieJitter(&a, 1e-3, 7);
  internal::ApplyTieJitter(&b, 1e-3, 7);
  EXPECT_EQ(a, b);  // same salt, same jitter
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], static_cast<double>(i + 1), 3e-3 * 1.51);
    EXPECT_NE(a[i], static_cast<double>(i + 1));
  }
}

TEST(ApplyTieJitterTest, ZeroAmplitudeIsNoOp) {
  std::vector<double> a = {1.0, 2.0};
  internal::ApplyTieJitter(&a, 0.0, 1);
  EXPECT_EQ(a, (std::vector<double>{1.0, 2.0}));
}

// Golden values: KsgMi on fixed windows of the simulated energy data
// (default EnergySimOptions), recorded as hexfloats from the estimator
// before the kNN selector and scratch rework, and asserted bit for bit.
// A kernel change that moves any of them breaks the determinism contract,
// even when it would pass a tolerance test.
using datagen::EnergyChannel;

struct GoldenKsgCase {
  EnergyChannel leader;
  EnergyChannel follower;
  Window window;
  int k;
  double tie_jitter;  // applied to the window's samples, salts 1 and 2
  double mi[3];       // kBrute, kKdTree, kGrid
};

const datagen::EnergySimulator& GoldenSim() {
  static const datagen::EnergySimulator sim{datagen::EnergySimOptions{}};
  return sim;
}

TEST(KsgGoldenTest, EnergyWindowsBitExactUnderEveryBackend) {
  constexpr EnergyChannel kKitchen = EnergyChannel::kKitchen;
  constexpr EnergyChannel kLight = EnergyChannel::kKitchenLight;
  constexpr EnergyChannel kMicro = EnergyChannel::kMicrowave;
  const GoldenKsgCase cases[] = {
      {kLight, kMicro, Window(100, 105, 0), 4, 0.0,
       {-0x1.99999999999ap-5, -0x1.99999999999ap-5, -0x1.99999999999ap-5}},
      {EnergyChannel::kBathroomLight, kLight, Window(500, 515, -3), 4, 0.0,
       {-0x1.caf90ca8104cp-5, -0x1.caf90ca8104cp-5, -0x1.caf90ca8104cp-5}},
      {kKitchen, EnergyChannel::kDishWasher, Window(1200, 1247, 2), 4, 0.0,
       {0x1.3e850b887f3p-6, 0x1.3e850b887f3p-6, 0x1.3e850b887f3p-6}},
      {EnergyChannel::kClothesWasher, EnergyChannel::kDryer,
       Window(2000, 2095, 5), 4, 0.0,
       {0x1.7d6d17b86aa4p-4, 0x1.7d6d17b86aa4p-4, 0x1.7d6d17b86aa4p-4}},
      {EnergyChannel::kChildrenRoomLight, EnergyChannel::kLivingRoomLight,
       Window(2600, 2799, -1), 4, 0.0,
       {-0x1.e88bf97b8ccp-7, -0x1.e88bf97b8ccp-7, -0x1.e88bf97b8ccp-7}},
      {kKitchen, kMicro, Window(3100, 3399, 3), 4, 0.0,
       {0x1.3d9054e77aecp-4, 0x1.3d9054e77aecp-4, 0x1.3d9054e77aecp-4}},
      {kLight, kMicro, Window(700, 795, 1), 1, 0.0,
       {0x1.65611018ddfp-4, 0x1.65611018ddfp-4, 0x1.65611018ddfp-4}},
      {kLight, kMicro, Window(700, 795, 1), 8, 0.0,
       {-0x1.05ab466a3a4p-4, -0x1.05ab466a3a4p-4, -0x1.05ab466a3a4p-4}},
      {kKitchen, EnergyChannel::kDishWasher, Window(1200, 1247, 2), 4, 1e-6,
       {0x1.64721503c1ap-6, 0x1.64721503c1ap-6, 0x1.64721503c1ap-6}},
  };
  const KnnBackend backends[3] = {KnnBackend::kBrute, KnnBackend::kKdTree,
                                  KnnBackend::kGrid};
  for (const GoldenKsgCase& c : cases) {
    const SeriesPair pair = GoldenSim().Pair(c.leader, c.follower);
    std::vector<double> xs, ys;
    ExtractSamples(pair, c.window, &xs, &ys);
    internal::ApplyTieJitter(&xs, c.tie_jitter, /*salt=*/1);
    internal::ApplyTieJitter(&ys, c.tie_jitter, /*salt=*/2);
    for (int b = 0; b < 3; ++b) {
      KsgOptions o;
      o.k = c.k;
      o.backend = backends[b];
      EXPECT_EQ(KsgMi(xs, ys, o), c.mi[b])
          << c.window.ToString() << " k=" << c.k << " backend=" << b;
    }
  }
}

TEST(KsgGoldenTest, IncrementalWalkBitExact) {
  // Grow, shrink, slide, a delay change (rebuild), a 300-sample rebuild,
  // and a jump to a small window. Each value is the batch
  // KsgMi(pair, window, {k = 4, kBrute}), recorded as a hexfloat before the
  // incremental estimator kept neighbour lists; the incremental walk must
  // reproduce it bit for bit.
  struct Step {
    Window window;
    double mi;
  };
  const Step walk[] = {
      {Window(1000, 1099, 1), 0x1.4d498550c1p-6},
      {Window(1000, 1110, 1), 0x1.dc268e19d0fp-5},
      {Window(1005, 1110, 1), 0x1.2d984a8ef3fp-5},
      {Window(1020, 1125, 1), 0x1.a8ae319b38fcp-4},
      {Window(1010, 1115, 1), 0x1.8dcc1d5ae1ecp-4},
      {Window(1010, 1115, 2), -0x1.288ef64c1c5p-5},
      {Window(1012, 1113, 2), -0x1.d13d8c4693cp-6},
      {Window(1000, 1299, 2), 0x1.021fbecf489p-4},
      {Window(1004, 1303, 2), 0x1.ccaacc98ca88p-5},
      {Window(1400, 1405, 0), -0x1.111111111118p-7},
      {Window(1400, 1420, 0), 0x1.20415a905c6cp-4},
      {Window(1390, 1420, 0), 0x1.86ac00f941ep-6},
  };
  const SeriesPair pair =
      GoldenSim().Pair(EnergyChannel::kKitchenLight, EnergyChannel::kMicrowave);
  IncrementalKsg inc(pair, 4);
  KsgOptions brute;
  brute.k = 4;
  brute.backend = KnnBackend::kBrute;
  for (const Step& s : walk) {
    EXPECT_EQ(KsgMi(pair, s.window, brute), s.mi) << s.window.ToString();
    EXPECT_EQ(inc.SetWindow(s.window), s.mi) << s.window.ToString();
  }
  EXPECT_EQ(inc.stats().full_rebuilds, 3);
  EXPECT_EQ(inc.stats().incremental_moves, 9);
  // Full kNN searches only: an added point's IR hits are O(k) list
  // inserts. The IR/IMR classification itself is the one the running-sum
  // estimator made: 1195 IR hits, 12545 IMR count updates.
  EXPECT_EQ(inc.stats().knn_recomputes, 163);
  EXPECT_EQ(inc.stats().knn_list_inserts, 1195 - 163);
  EXPECT_EQ(inc.stats().marginal_updates, 12545);
}

}  // namespace
}  // namespace tycos
