// Property-based suites: invariants that must hold across randomized
// inputs, beyond the example-based unit tests.

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/window_set.h"
#include "core/window_similarity.h"
#include "datagen/relations.h"
#include "mi/incremental_ksg.h"
#include "mi/ksg.h"
#include "search/brute_force_search.h"

namespace tycos {
namespace {

// ---------------------------------------------------------------------------
// KSG estimator invariances.
// ---------------------------------------------------------------------------

class KsgInvarianceTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void MakeData(std::vector<double>* xs, std::vector<double>* ys) {
    Rng rng(GetParam());
    xs->resize(400);
    ys->resize(400);
    for (size_t i = 0; i < xs->size(); ++i) {
      (*xs)[i] = rng.Normal();
      (*ys)[i] = std::tanh((*xs)[i]) + 0.3 * rng.Normal();
    }
  }
};

TEST_P(KsgInvarianceTest, SymmetricInArguments) {
  std::vector<double> xs, ys;
  MakeData(&xs, &ys);
  EXPECT_NEAR(KsgMi(xs, ys), KsgMi(ys, xs), 1e-9);
}

TEST_P(KsgInvarianceTest, InvariantUnderSamplePermutation) {
  // MI is a property of the joint distribution, not the sample order —
  // permuting the *pairs* must not change the estimate.
  std::vector<double> xs, ys;
  MakeData(&xs, &ys);
  const double base = KsgMi(xs, ys);
  std::vector<size_t> perm(xs.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Rng rng(GetParam() + 1);
  std::shuffle(perm.begin(), perm.end(), rng.engine());
  std::vector<double> px(xs.size()), py(ys.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    px[i] = xs[perm[i]];
    py[i] = ys[perm[i]];
  }
  EXPECT_NEAR(KsgMi(px, py), base, 1e-9);
}

TEST_P(KsgInvarianceTest, InvariantUnderUniformAffineRescaling) {
  // Scaling both marginals by the same magnitude rescales every L∞
  // distance uniformly, so neighbourhoods and counts are unchanged. (Note
  // this is deliberately *uniform*: rescaling the dimensions by different
  // factors changes the finite-sample KSG estimate slightly — the
  // well-known reason KSG inputs are usually pre-normalized.)
  std::vector<double> xs, ys;
  MakeData(&xs, &ys);
  const double base = KsgMi(xs, ys);
  std::vector<double> sx(xs), sy(ys);
  for (double& v : sx) v = 3.5 * v - 7.0;
  for (double& v : sy) v = -3.5 * v + 2.0;  // same magnitude, sign flipped
  // Not bit-exact: the marginal-count boundary (center ± d) rounds
  // differently after rescaling, flipping a handful of defining-neighbour
  // inclusions; each flip moves the estimate by O(1/(k·m)).
  EXPECT_NEAR(KsgMi(sx, sy), base, 5e-3);
}

TEST_P(KsgInvarianceTest, ShufflingOnePartnerDestroysMi) {
  // Breaking the pairing must send the estimate to ~0 (a permutation-test
  // null that every dependence measure must satisfy).
  std::vector<double> xs, ys;
  MakeData(&xs, &ys);
  Rng rng(GetParam() + 2);
  std::vector<double> shuffled = ys;
  std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
  EXPECT_GT(KsgMi(xs, ys), 0.4);
  EXPECT_NEAR(KsgMi(xs, shuffled), 0.0, 0.12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KsgInvarianceTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---------------------------------------------------------------------------
// Hostile estimator inputs: degenerate-but-defined behavior. The KSG
// formula is undefined on constant marginals and tiny samples; the library
// contract is MI = 0 (counted in diagnostics), never a degenerate kNN
// query, a NaN, or a crash.
// ---------------------------------------------------------------------------

enum class HostileKind {
  kConstant,      // every sample identical
  kAllTies,       // two discrete values, every distance ties
  kTwoSamples,    // m = 2 < k + 2
  kNearConstant,  // spread below double epsilon granularity
  kHugeMagnitude  // |values| ~ 1e100
};

std::vector<double> MakeHostile(HostileKind kind, uint64_t seed, size_t m) {
  Rng rng(seed);
  std::vector<double> v(kind == HostileKind::kTwoSamples ? 2 : m);
  for (size_t i = 0; i < v.size(); ++i) {
    switch (kind) {
      case HostileKind::kConstant:
        v[i] = 42.0;
        break;
      case HostileKind::kAllTies:
        v[i] = rng.UniformInt(0, 1) ? 1.0 : 0.0;
        break;
      case HostileKind::kTwoSamples:
        v[i] = rng.Normal();
        break;
      case HostileKind::kNearConstant:
        v[i] = 1.0 + 1e-13 * rng.Normal();
        break;
      case HostileKind::kHugeMagnitude:
        v[i] = 1e100 * rng.Normal();
        break;
    }
  }
  return v;
}

class HostileInputTest
    : public ::testing::TestWithParam<std::tuple<HostileKind, uint64_t>> {};

TEST_P(HostileInputTest, KsgAndNormalizedMiStayDefined) {
  const auto [kind, seed] = GetParam();
  const std::vector<double> xs = MakeHostile(kind, seed, 200);
  const std::vector<double> ys = MakeHostile(kind, seed + 1000, 200);

  KsgDiagnostics diag;
  KsgOptions options;
  options.diagnostics = &diag;
  const double raw = KsgMi(xs, ys, options);
  EXPECT_TRUE(std::isfinite(raw));
  const double normalized = NormalizedMi(xs, ys);
  EXPECT_TRUE(std::isfinite(normalized));
  EXPECT_GE(normalized, 0.0);
  EXPECT_LE(normalized, 1.0);

  if (kind == HostileKind::kConstant) {
    EXPECT_EQ(raw, 0.0);
    EXPECT_GT(diag.degenerate_windows, 0);
  }
  if (kind == HostileKind::kTwoSamples) {
    EXPECT_EQ(raw, 0.0);
  }
}

TEST_P(HostileInputTest, HostileOnOneSideOnlyIsStillDefined) {
  const auto [kind, seed] = GetParam();
  const std::vector<double> xs = MakeHostile(kind, seed, 200);
  Rng rng(seed + 7);
  std::vector<double> ys(xs.size());
  for (double& v : ys) v = rng.Normal();
  const double raw = KsgMi(xs, ys);
  EXPECT_TRUE(std::isfinite(raw));
  if (kind == HostileKind::kConstant) {
    EXPECT_EQ(raw, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSeeds, HostileInputTest,
    ::testing::Combine(::testing::Values(HostileKind::kConstant,
                                         HostileKind::kAllTies,
                                         HostileKind::kTwoSamples,
                                         HostileKind::kNearConstant,
                                         HostileKind::kHugeMagnitude),
                       ::testing::Values(101, 202, 303)));

TEST(HostileInputTest, NonFiniteSamplesScoreZeroWithDiagnostics) {
  Rng rng(9);
  std::vector<double> xs(100), ys(100);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.Normal();
    ys[i] = xs[i] + 0.1 * rng.Normal();
  }
  xs[50] = std::numeric_limits<double>::quiet_NaN();
  KsgDiagnostics diag;
  KsgOptions options;
  options.diagnostics = &diag;
  EXPECT_EQ(KsgMi(xs, ys, options), 0.0);
  EXPECT_GT(diag.non_finite_inputs, 0);
}

TEST(HostileInputTest, IncrementalSkipsDegenerateWindowsAndStaysExact) {
  // A constant patch sits in the middle of an otherwise healthy pair. The
  // incremental estimator must (a) score windows inside the patch as 0
  // without touching its state, and (b) keep agreeing with the batch
  // estimator on every healthy window visited afterwards — proving the
  // degenerate skip cannot corrupt the incremental structures.
  Rng rng(10);
  const int64_t n = 400;
  std::vector<double> xs(static_cast<size_t>(n)), ys(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = rng.Normal();
    ys[i] = 0.8 * xs[i] + 0.2 * rng.Normal();
  }
  for (int64_t i = 150; i < 250; ++i) xs[static_cast<size_t>(i)] = 3.0;
  const SeriesPair pair{TimeSeries(xs, "x"), TimeSeries(ys, "y")};

  const int k = 4;
  IncrementalKsg inc(pair, k);
  KsgOptions options;
  options.k = k;
  int64_t degenerate_seen = 0;
  // A slide crossing healthy → constant → healthy territory.
  for (int64_t start = 100; start + 40 <= n; start += 5) {
    const Window w(start, start + 39, 0);
    const double got = inc.SetWindow(w);
    const double want = KsgMi(pair, w, options);
    ASSERT_EQ(got, want) << w.ToString();
    if (start >= 150 && start + 39 < 250) {
      ASSERT_EQ(got, 0.0) << w.ToString();
      ++degenerate_seen;
    }
  }
  EXPECT_GT(degenerate_seen, 0);
  EXPECT_EQ(inc.stats().degenerate_windows, degenerate_seen);
}

TEST(HostileInputTest, IncrementalTwoSampleWindowIsZero) {
  const SeriesPair pair{TimeSeries({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0}),
                        TimeSeries({2.0, 4.0, 1.0, 3.0, 8.0, 5.0, 7.0, 6.0})};
  IncrementalKsg inc(pair, /*k=*/4);
  EXPECT_EQ(inc.SetWindow(Window(0, 1, 0)), 0.0);  // m = 2 < k + 2
}

// ---------------------------------------------------------------------------
// Window algebra properties.
// ---------------------------------------------------------------------------

TEST(WindowAlgebraPropertyTest, ConcatenationSizeIsAdditive) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const int64_t s = rng.UniformInt(0, 1000);
    const int64_t mid = s + rng.UniformInt(0, 100);
    const int64_t e = mid + 1 + rng.UniformInt(0, 100);
    const int64_t tau = rng.UniformInt(-20, 20);
    const Window a(s, mid, tau), b(mid + 1, e, tau);
    ASSERT_TRUE(AreConsecutive(a, b));
    const Window c = Concatenate(a, b);
    ASSERT_EQ(c.size(), a.size() + b.size());
    ASSERT_TRUE(Contains(c, a));
    ASSERT_TRUE(Contains(c, b));
  }
}

TEST(WindowAlgebraPropertyTest, ContainmentIsPartialOrder) {
  Rng rng(2);
  std::vector<Window> ws;
  for (int i = 0; i < 40; ++i) {
    const int64_t s = rng.UniformInt(0, 50);
    ws.push_back(Window(s, s + rng.UniformInt(0, 50), rng.UniformInt(-2, 2)));
  }
  for (const Window& a : ws) {
    ASSERT_TRUE(Contains(a, a));  // reflexive
    for (const Window& b : ws) {
      if (Contains(a, b) && Contains(b, a)) {
        ASSERT_TRUE(a.SameSpan(b));  // antisymmetric
      }
      for (const Window& c : ws) {
        if (Contains(a, b) && Contains(b, c)) {
          ASSERT_TRUE(Contains(a, c));  // transitive
        }
      }
    }
  }
}

TEST(WindowAlgebraPropertyTest, JaccardIsBoundedAndSymmetric) {
  Rng rng(3);
  for (int trial = 0; trial < 300; ++trial) {
    const int64_t s1 = rng.UniformInt(0, 200);
    const Window a(s1, s1 + rng.UniformInt(0, 80), 0);
    const int64_t s2 = rng.UniformInt(0, 200);
    const Window b(s2, s2 + rng.UniformInt(0, 80), 0);
    const double j = IndexJaccard(a, b);
    ASSERT_GE(j, 0.0);
    ASSERT_LE(j, 1.0);
    ASSERT_DOUBLE_EQ(j, IndexJaccard(b, a));
    ASSERT_LE(j, OverlapCoefficient(a, b) + 1e-12);  // Jaccard <= overlap
  }
}

// ---------------------------------------------------------------------------
// WindowSet stress: invariants under randomized insertion.
// ---------------------------------------------------------------------------

TEST(WindowSetPropertyTest, RandomizedNonNestingInvariant) {
  Rng rng(4);
  WindowSet set;
  std::vector<Window> offered;
  for (int i = 0; i < 400; ++i) {
    const int64_t s = rng.UniformInt(0, 300);
    Window w(s, s + rng.UniformInt(0, 60), rng.UniformInt(-3, 3));
    w.mi = rng.Uniform(0.0, 1.0);
    offered.push_back(w);
    set.Insert(w);
  }
  const auto& ws = set.windows();
  // (a) Non-nesting invariant.
  for (size_t i = 0; i < ws.size(); ++i) {
    for (size_t j = 0; j < ws.size(); ++j) {
      if (i == j) continue;
      ASSERT_FALSE(Contains(ws[i], ws[j]));
    }
  }
  // (b) Every member is one of the offered windows, MI included.
  for (const Window& in : ws) {
    bool known = false;
    for (const Window& o : offered) {
      known |= in.SameSpan(o) && in.mi == o.mi;
    }
    ASSERT_TRUE(known) << in.ToString();
  }
  // (c) The strongest offered window can never be evicted (eviction
  // requires strictly higher MI), so it must be a member.
  const Window* best = &offered[0];
  for (const Window& o : offered) {
    if (o.mi > best->mi) best = &o;
  }
  bool present = false;
  for (const Window& in : ws) present |= in.SameSpan(*best);
  ASSERT_TRUE(present) << best->ToString();
}

TEST(MergeOverlappingPropertyTest, IdempotentAndCoveragePreserving) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Window> ws;
    for (int i = 0; i < 30; ++i) {
      const int64_t s = rng.UniformInt(0, 150);
      ws.push_back(Window(s, s + rng.UniformInt(0, 40),
                          rng.UniformInt(0, 1)));
    }
    const auto merged = MergeOverlapping(ws);
    const auto twice = MergeOverlapping(merged);
    ASSERT_EQ(merged.size(), twice.size());
    // Index coverage per delay is preserved.
    auto covered = [](const std::vector<Window>& v, int64_t idx,
                      int64_t tau) {
      for (const Window& w : v) {
        if (w.delay == tau && w.start <= idx && idx <= w.end) return true;
      }
      return false;
    };
    for (int64_t idx = 0; idx < 200; idx += 7) {
      for (int64_t tau = 0; tau <= 1; ++tau) {
        ASSERT_EQ(covered(ws, idx, tau), covered(merged, idx, tau))
            << "idx=" << idx << " tau=" << tau;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Brute force: the incremental evaluator path at large s_max must agree
// with stateless batch evaluation window for window.
// ---------------------------------------------------------------------------

TEST(BruteForcePropertyTest, LargeWindowIncrementalAgreesWithBatch) {
  const datagen::SyntheticDataset ds = datagen::ComposeDataset(
      {datagen::SegmentSpec{datagen::RelationType::kLinear, 150, 1}},
      /*gap=*/60, /*seed=*/6);
  TycosParams p;
  p.sigma = 0.55;
  p.s_min = 100;  // above the hybrid evaluator's stateless threshold
  p.s_max = 160;
  p.td_max = 2;
  const BruteForceResult inc =
      BruteForceSearch(ds.pair, p, /*use_incremental_mi=*/true).Run();
  const BruteForceResult batch =
      BruteForceSearch(ds.pair, p, /*use_incremental_mi=*/false).Run();
  ASSERT_EQ(inc.raw.size(), batch.raw.size());
  for (size_t i = 0; i < inc.raw.size(); ++i) {
    ASSERT_TRUE(inc.raw[i].SameSpan(batch.raw[i]));
    ASSERT_EQ(inc.raw[i].mi, batch.raw[i].mi);
  }
  ASSERT_EQ(inc.windows_evaluated, batch.windows_evaluated);
}

}  // namespace
}  // namespace tycos
