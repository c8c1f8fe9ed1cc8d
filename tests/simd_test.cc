// Differential tests for the SIMD kernels (common/simd.h): each kernel is
// run against its *Scalar twin on random, denormal-laden, and
// NaN/±inf-laden inputs at sizes that cross every vector-width tail (the
// kNN extents, neighbour list and marginal count kernels on finite inputs
// only, their documented domain). In a
// scalar build the kernel IS the twin and the tests pin the twin alone.
// Element-wise kernels must agree bit-for-bit (including NaN payloads); the
// min/max reduction is value-exact with the documented zero-sign caveat.

#include "common/simd.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "gtest/gtest.h"
#include "knn/point.h"

namespace tycos {
namespace {

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Bitwise equality, except both zero signs count as equal (the documented
// reduction caveat). NaNs must carry the identical payload.
bool SameValue(double a, double b) {
  return Bits(a) == Bits(b) || (a == 0.0 && b == 0.0);
}

enum class Mix { kUniform, kDenormal, kHostile };

// Hostile pool covers both zero signs, the denormal range ends, the finite
// range ends, and the non-finite specials.
double Special(std::mt19937_64& rng) {
  static const double pool[] = {0.0,
                                -0.0,
                                5e-324,
                                -5e-324,
                                1e-310,
                                -1e-310,
                                DBL_MIN,
                                -DBL_MIN,
                                DBL_MAX,
                                -DBL_MAX,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
  return pool[rng() % (sizeof(pool) / sizeof(pool[0]))];
}

double Draw(std::mt19937_64& rng, Mix mix) {
  std::uniform_real_distribution<double> uniform(-100.0, 100.0);
  switch (mix) {
    case Mix::kUniform:
      return uniform(rng);
    case Mix::kDenormal:
      if (rng() % 3 == 0) return uniform(rng) * 1e-320;
      return uniform(rng) * DBL_MIN;
    case Mix::kHostile:
      if (rng() % 4 == 0) return Special(rng);
      return uniform(rng);
  }
  return 0.0;
}

std::vector<double> MakeArray(size_t len, Mix mix, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> v(len);
  for (double& x : v) x = Draw(rng, mix);
  return v;
}

// Sizes crossing the 4-lane tails.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100};

TEST(SimdTest, InstructionSetMatchesCompiledLevel) {
#if TYCOS_SIMD_LEVEL >= 2
  EXPECT_STREQ(simd::InstructionSet(), "avx2");
#else
  EXPECT_STREQ(simd::InstructionSet(), "scalar");
#endif
}

TEST(SimdTest, ChebyshevToProbeBitExact) {
  for (Mix mix : {Mix::kUniform, Mix::kDenormal, Mix::kHostile}) {
    for (size_t n : kSizes) {
      SCOPED_TRACE(testing::Message()
                   << "mix=" << static_cast<int>(mix) << " n=" << n);
      const std::vector<double> xy =
          MakeArray(2 * n, mix, 11 * n + static_cast<size_t>(mix));
      std::mt19937_64 rng(99 + n);
      const double px = Draw(rng, mix);
      const double py = Draw(rng, mix);
      std::vector<double> got(n, -1.0), want(n, -1.0);
      simd::ChebyshevToProbe(xy.data(), n, px, py, got.data());
      simd::ChebyshevToProbeScalar(xy.data(), n, px, py, want.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(Bits(got[i]), Bits(want[i])) << "i=" << i;
      }
    }
  }
}

TEST(SimdTest, MinMaxFiniteMatchesScalar) {
  for (Mix mix : {Mix::kUniform, Mix::kDenormal, Mix::kHostile}) {
    for (size_t n : kSizes) {
      if (n == 0) continue;
      SCOPED_TRACE(testing::Message()
                   << "mix=" << static_cast<int>(mix) << " n=" << n);
      const std::vector<double> v =
          MakeArray(n, mix, 23 * n + static_cast<size_t>(mix));
      const simd::MinMaxFiniteResult got = simd::MinMaxFinite(v.data(), n);
      const simd::MinMaxFiniteResult want =
          simd::MinMaxFiniteScalar(v.data(), n);
      EXPECT_EQ(got.all_finite, want.all_finite);
      bool expect_finite = true;
      for (double x : v) expect_finite = expect_finite && std::isfinite(x);
      EXPECT_EQ(got.all_finite, expect_finite);
      if (want.all_finite) {
        // min/max are specified only on all-finite input.
        EXPECT_TRUE(SameValue(got.min, want.min))
            << got.min << " vs " << want.min;
        EXPECT_TRUE(SameValue(got.max, want.max))
            << got.max << " vs " << want.max;
      }
    }
  }
}

// Finite samples only: ClassifyInputs rules out NaN and ±inf before any kNN
// query. The lattice draws integers 0-4, so most queries tie at their k-th
// distance and the tie-break decides the extents; the huge mix puts values
// of DBL_MAX scale beside small ones, so distances overflow to +inf and
// tie there too.
enum class KnnMix { kUniform, kDenormal, kLattice, kHuge };

std::vector<double> MakeKnnSamples(size_t m, KnnMix mix, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> v(m);
  for (double& x : v) {
    switch (mix) {
      case KnnMix::kUniform:
        x = Draw(rng, Mix::kUniform);
        break;
      case KnnMix::kDenormal:
        x = Draw(rng, Mix::kDenormal);
        break;
      case KnnMix::kLattice:
        x = static_cast<double>(rng() % 5);
        break;
      case KnnMix::kHuge:
        x = rng() % 3 == 0 ? (rng() % 2 ? DBL_MAX : -DBL_MAX) * 0.75
                           : Draw(rng, Mix::kUniform);
        break;
    }
  }
  return v;
}

// Window sizes around the AVX2 body's pass-1 warm-up, which runs the first
// J = 16k candidates of a lane group through the network and lets only later
// ones skip it: m from J - 1 to J + 5 for k in {1, 4, 7, 16}, and 512 and
// 1,024 at k in {1, 4}, where the skip decides nearly every candidate. On the
// lattice mix the k-th distance ties on both sides of J. Merged into `sizes`
// (sorted, no repeats).
void AddWarmUpSizes(size_t k, std::vector<size_t>* sizes) {
  if (k == 1 || k == 4 || k == 7 || k == 16) {
    for (size_t m = 16 * k - 1; m <= 16 * k + 5; ++m) sizes->push_back(m);
  }
  if (k == 1 || k == 4) {
    sizes->push_back(512);
    sizes->push_back(1024);
  }
  std::sort(sizes->begin(), sizes->end());
  sizes->erase(std::unique(sizes->begin(), sizes->end()), sizes->end());
}

TEST(SimdTest, KnnExtentsAllMatchesScalar) {
  std::vector<size_t> ks;
  for (size_t k = 1; k <= 16; ++k) ks.push_back(k);
  ks.push_back(20);  // above KnnSelector's inline capacity
  for (KnnMix mix :
       {KnnMix::kUniform, KnnMix::kDenormal, KnnMix::kLattice, KnnMix::kHuge}) {
    for (size_t k : ks) {
      // Every 4-lane tail at the smallest legal sizes, around 64 and 256,
      // and around the warm-up's end.
      std::vector<size_t> sizes;
      for (size_t m = k + 1; m <= k + 8; ++m) sizes.push_back(m);
      for (size_t m : {61, 62, 63, 64, 253, 254, 255, 256}) {
        if (m > k + 8) sizes.push_back(m);
      }
      AddWarmUpSizes(k, &sizes);
      for (size_t m : sizes) {
        SCOPED_TRACE(testing::Message() << "mix=" << static_cast<int>(mix)
                                        << " k=" << k << " m=" << m);
        const uint64_t seed = 1000 * m + 10 * k + static_cast<uint64_t>(mix);
        const std::vector<double> x = MakeKnnSamples(m, mix, seed);
        const std::vector<double> y = MakeKnnSamples(m, mix, seed + 7);
        std::vector<double> got_dx(m, -1.0), got_dy(m, -1.0);
        std::vector<double> want_dx(m, -2.0), want_dy(m, -2.0);
        simd::KnnExtentsAll(x.data(), y.data(), m, k, got_dx.data(),
                            got_dy.data());
        simd::KnnExtentsAllScalar(x.data(), y.data(), m, k, want_dx.data(),
                                  want_dy.data());
        for (size_t i = 0; i < m; ++i) {
          ASSERT_EQ(Bits(got_dx[i]), Bits(want_dx[i])) << "dx, query " << i;
          ASSERT_EQ(Bits(got_dy[i]), Bits(want_dy[i])) << "dy, query " << i;
        }
      }
    }
  }
}

// The neighbour lists of the incremental estimator's rebuild: the AVX2 body
// against its twin (lists and extents bit for bit, and the extents equal to
// a call without lists), and the twin against KnnSelector offered every
// other point in index order (indices, distances and order), around 8, 32,
// 64 and 128 points and the pass-1 warm-up's end.
TEST(SimdTest, KnnListsMatchScalarAndSelector) {
  std::vector<size_t> base_sizes;
  for (size_t base : {8, 32, 64, 128}) {
    for (size_t m = base - 3; m <= base + 3 + (base == 8 ? 1 : 0); ++m) {
      base_sizes.push_back(m);
    }
  }
  for (KnnMix mix :
       {KnnMix::kUniform, KnnMix::kDenormal, KnnMix::kLattice, KnnMix::kHuge}) {
    for (size_t k : {1, 4, 7, 16}) {
      std::vector<size_t> sizes = base_sizes;
      AddWarmUpSizes(k, &sizes);
      for (size_t m : sizes) {
        if (m < k + 1) continue;
        SCOPED_TRACE(testing::Message() << "mix=" << static_cast<int>(mix)
                                        << " k=" << k << " m=" << m);
        const uint64_t seed = 700 * m + 10 * k + static_cast<uint64_t>(mix);
        const std::vector<double> x = MakeKnnSamples(m, mix, seed);
        const std::vector<double> y = MakeKnnSamples(m, mix, seed + 5);
        std::vector<double> got_dx(m), got_dy(m), want_dx(m), want_dy(m);
        std::vector<double> bare_dx(m), bare_dy(m);
        std::vector<KnnEntry> got(m * k, {-1.0, m});
        std::vector<KnnEntry> want(m * k, {-2.0, m});
        simd::KnnExtentsAll(x.data(), y.data(), m, k, got_dx.data(),
                            got_dy.data(), got.data());
        simd::KnnExtentsAllScalar(x.data(), y.data(), m, k, want_dx.data(),
                                  want_dy.data(), want.data());
        simd::KnnExtentsAll(x.data(), y.data(), m, k, bare_dx.data(),
                            bare_dy.data());
        for (size_t i = 0; i < m; ++i) {
          ASSERT_EQ(Bits(got_dx[i]), Bits(want_dx[i])) << "dx, query " << i;
          ASSERT_EQ(Bits(got_dy[i]), Bits(want_dy[i])) << "dy, query " << i;
          ASSERT_EQ(Bits(got_dx[i]), Bits(bare_dx[i])) << "dx, query " << i;
          ASSERT_EQ(Bits(got_dy[i]), Bits(bare_dy[i])) << "dy, query " << i;
          KnnSelector selector(static_cast<int>(k));
          for (size_t j = 0; j < m; ++j) {
            if (j == i) continue;
            selector.OfferAscending(
                std::max(std::fabs(x[j] - x[i]), std::fabs(y[j] - y[i])), j);
          }
          ASSERT_EQ(selector.size(), k);
          for (size_t t = 0; t < k; ++t) {
            const KnnEntry& g = got[i * k + t];
            const KnnEntry& w = want[i * k + t];
            const KnnEntry& s = selector.selected()[t];
            ASSERT_EQ(g.index, w.index) << "query " << i << " slot " << t;
            ASSERT_EQ(Bits(g.d), Bits(w.d)) << "query " << i << " slot " << t;
            ASSERT_EQ(w.index, s.index) << "query " << i << " slot " << t;
            ASSERT_EQ(Bits(w.d), Bits(s.d)) << "query " << i << " slot " << t;
          }
        }
      }
    }
  }
}

// The count pass on every 4-lane tail from 1 to 12 points and around 32,
// 64, 128 and 256, over the kNN clouds. Extents come from the kNN twin at
// k = 4 (each query's strip edge then sits on a sample, so the closed
// bounds decide the count), and are also set by hand: all 0 (only exact
// ties count) and all +inf (every other point counts). The twin itself is
// checked against the definition with the self index left out explicitly.
TEST(SimdTest, MarginalCountsAllMatchesScalar) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<size_t> sizes;
  for (size_t m = 1; m <= 12; ++m) sizes.push_back(m);
  for (size_t base : {32, 64, 128, 256}) {
    for (size_t m = base - 3; m <= base + (base < 256 ? 3 : 0); ++m) {
      sizes.push_back(m);
    }
  }
  enum class Extents { kKnn, kZero, kInf };
  for (KnnMix mix :
       {KnnMix::kUniform, KnnMix::kDenormal, KnnMix::kLattice, KnnMix::kHuge}) {
    for (size_t m : sizes) {
      const uint64_t seed = 500 * m + static_cast<uint64_t>(mix);
      const std::vector<double> x = MakeKnnSamples(m, mix, seed);
      const std::vector<double> y = MakeKnnSamples(m, mix, seed + 3);
      for (Extents extents : {Extents::kKnn, Extents::kZero, Extents::kInf}) {
        SCOPED_TRACE(testing::Message()
                     << "mix=" << static_cast<int>(mix) << " m=" << m
                     << " extents=" << static_cast<int>(extents));
        std::vector<double> dx(m, 0.0), dy(m, 0.0);
        if (extents == Extents::kKnn) {
          if (m < 5) continue;  // k = 4 needs m >= k + 1
          simd::KnnExtentsAllScalar(x.data(), y.data(), m, 4, dx.data(),
                                    dy.data());
        } else if (extents == Extents::kInf) {
          dx.assign(m, kInf);
          dy.assign(m, kInf);
        }
        std::vector<int64_t> got_nx(m, -1), got_ny(m, -1);
        std::vector<int64_t> want_nx(m, -2), want_ny(m, -2);
        simd::MarginalCountsAll(x.data(), y.data(), m, dx.data(), dy.data(),
                                got_nx.data(), got_ny.data());
        simd::MarginalCountsAllScalar(x.data(), y.data(), m, dx.data(),
                                      dy.data(), want_nx.data(),
                                      want_ny.data());
        for (size_t i = 0; i < m; ++i) {
          ASSERT_EQ(got_nx[i], want_nx[i]) << "nx, query " << i;
          ASSERT_EQ(got_ny[i], want_ny[i]) << "ny, query " << i;
          int64_t def_nx = 0, def_ny = 0;
          for (size_t j = 0; j < m; ++j) {
            if (j == i) continue;
            def_nx += x[i] - dx[i] <= x[j] && x[j] <= x[i] + dx[i];
            def_ny += y[i] - dy[i] <= y[j] && y[j] <= y[i] + dy[i];
          }
          ASSERT_EQ(want_nx[i], def_nx) << "nx, query " << i;
          ASSERT_EQ(want_ny[i], def_ny) << "ny, query " << i;
          if (extents == Extents::kInf) {
            ASSERT_EQ(want_nx[i], static_cast<int64_t>(m) - 1);
          }
        }
      }
    }
  }
}

// The one-strip recount against a count written here, on every 4-lane
// tail: centres on and between samples, extents 0 (only exact ties count),
// +inf (every sample but NaN counts), the distance to another sample (a
// bound lands on it) and random, over the finite clouds and the hostile
// mix. Signed zeros compare equal, so a ±0.0 strip of extent 0 holds every
// zero of either sign.
TEST(SimdTest, CountInStripMatchesDirectCount) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto direct = [](const std::vector<double>& v, double c, double e) {
    int64_t count = 0;
    for (double s : v) count += c - e <= s && s <= c + e;
    return count;
  };
  std::vector<std::vector<double>> arrays;
  for (size_t n : kSizes) {
    for (KnnMix mix : {KnnMix::kUniform, KnnMix::kDenormal, KnnMix::kLattice,
                       KnnMix::kHuge}) {
      arrays.push_back(
          MakeKnnSamples(n, mix, 40 * n + static_cast<size_t>(mix)));
    }
    arrays.push_back(MakeArray(n, Mix::kHostile, 41 * n));
  }
  for (const std::vector<double>& v : arrays) {
    const size_t n = v.size();
    std::mt19937_64 rng(n + 3);
    std::vector<double> centres = {0.0, -0.0, 1.5, -DBL_MAX};
    for (size_t i = 0; i < n; i += 3) centres.push_back(v[i]);
    for (double c : centres) {
      std::vector<double> extents = {0.0, kInf,
                                     std::fabs(Draw(rng, Mix::kUniform))};
      if (n > 0) extents.push_back(std::fabs(v[rng() % n] - c));
      for (double e : extents) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " c=" << c
                                        << " e=" << e);
        const int64_t want = direct(v, c, e);
        ASSERT_EQ(simd::CountInStrip(v.data(), n, c, e), want);
        ASSERT_EQ(simd::CountInStripScalar(v.data(), n, c, e), want);
      }
    }
  }
  // Empty strips: no sample, a gap between samples, one occupied point.
  const std::vector<double> v = {1.0,  4.0, 4.0,  9.0, 0.0,
                                 -0.0, 0.0, -0.0, 2.0};
  EXPECT_EQ(simd::CountInStrip(v.data(), 0, 0.0, kInf), 0);
  EXPECT_EQ(simd::CountInStrip(v.data(), v.size(), 6.5, 2.0), 0);
  EXPECT_EQ(simd::CountInStrip(v.data(), v.size(), 4.0, 0.0), 2);
  EXPECT_EQ(simd::CountInStrip(v.data(), v.size(), 0.0, 0.0), 4);
  EXPECT_EQ(simd::CountInStrip(v.data(), v.size(), -0.0, 0.0), 4);
  EXPECT_EQ(simd::CountInStrip(v.data(), v.size(), 0.0, kInf), 9);
  EXPECT_EQ(simd::CountInStrip(v.data(), v.size(), 2.5, 1.5), 4);
}

// The sliding dot products against their twin at every band from 1 to 70
// (the twin path, whole 16-position groups, one to three whole vectors
// and the overlapping last vector) and query lengths around the AVX2
// widths and the prefilter's 128. Inputs: Gaussian, Gaussian on a 1e8
// offset, denormals, signed zeros among ±1, and magnitudes from 1e-300 to
// 1e300 whose products overflow to ±inf and whose sums then go NaN. The
// series is sized exactly, so an overread is a sanitizer error, and the
// slots past the band must keep their sentinel.
TEST(SimdTest, SlidingDotsMatchesScalar) {
  enum class DotMix { kGaussian, kOffset, kDenormal, kSignedZero, kMixed };
  const auto make = [](size_t len, DotMix mix, uint64_t seed) {
    if (mix == DotMix::kDenormal) return MakeArray(len, Mix::kDenormal, seed);
    std::mt19937_64 rng(seed);
    std::normal_distribution<double> normal;
    std::vector<double> v(len);
    for (double& x : v) {
      switch (mix) {
        case DotMix::kGaussian:
          x = normal(rng);
          break;
        case DotMix::kOffset:
          x = 1e8 + normal(rng);
          break;
        case DotMix::kSignedZero: {
          static const double pool[] = {0.0, -0.0, 1.0, -1.0};
          x = pool[rng() % 4];
          break;
        }
        case DotMix::kMixed:
          x = (rng() % 2 ? 1.0 : -1.0) *
              std::pow(10.0, static_cast<double>(rng() % 601) - 300.0);
          break;
        case DotMix::kDenormal:
          break;
      }
    }
    return v;
  };
  constexpr double kSentinel = -12345.0;
  for (DotMix mix : {DotMix::kGaussian, DotMix::kOffset, DotMix::kDenormal,
                     DotMix::kSignedZero, DotMix::kMixed}) {
    for (size_t m : {1, 2, 3, 64, 127, 128, 129, 256}) {
      for (size_t band = 1; band <= 70; ++band) {
        SCOPED_TRACE(testing::Message() << "mix=" << static_cast<int>(mix)
                                        << " m=" << m << " band=" << band);
        const uint64_t seed = 1000 * m + band + static_cast<uint64_t>(mix);
        const std::vector<double> q = make(m, mix, seed);
        const std::vector<double> t = make(band + m - 1, mix, seed + 7);
        std::vector<double> got(band + 4, kSentinel);
        std::vector<double> want(band + 4, kSentinel);
        simd::SlidingDots(q.data(), m, t.data(), band, got.data());
        simd::SlidingDotsScalar(q.data(), m, t.data(), band, want.data());
        for (size_t i = 0; i < band + 4; ++i) {
          ASSERT_EQ(Bits(got[i]), Bits(want[i])) << "i=" << i;
        }
        for (size_t i = band; i < band + 4; ++i) ASSERT_EQ(got[i], kSentinel);
      }
    }
  }
}

}  // namespace
}  // namespace tycos
