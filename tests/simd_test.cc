// Differential tests for the SIMD kernels (common/simd.h): every level the
// build carries — the public dispatch, plus the sse42:: and avx2:: bodies
// when TYCOS_SIMD_LEVEL compiles them in — is run against the *Scalar twin
// on random, denormal-laden, and NaN/±inf-laden inputs at sizes that cross
// every vector-width tail. Element-wise kernels must agree bit-for-bit
// (including NaN payloads); min/max reductions are value-exact with the
// documented zero-sign caveat.

#include "common/simd.h"

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "gtest/gtest.h"

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

struct Kernels {
  const char* name;
  void (*cheb)(const double*, size_t, double, double, double*);
  void (*cheb_idx)(const double*, const int32_t*, size_t, double, double,
                   double*);
  size_t (*count)(const double*, size_t, double, double);
  size_t (*lower)(const double*, size_t, double);
  size_t (*upper)(const double*, size_t, double);
  simd::MinMaxXYResult (*minmax_xy)(const double*, size_t);
  simd::MinMaxFiniteResult (*minmax_finite)(const double*, size_t);
};

std::vector<Kernels> AllLevels() {
  std::vector<Kernels> v;
  v.push_back({"dispatch", &simd::ChebyshevToProbe,
               &simd::ChebyshevToProbeIdx, &simd::CountWithinInterleaved,
               &simd::LowerBound, &simd::UpperBound, &simd::MinMaxXY,
               &simd::MinMaxFinite});
#if TYCOS_SIMD_LEVEL >= 1
  v.push_back({"sse4.2", &simd::sse42::ChebyshevToProbe,
               &simd::sse42::ChebyshevToProbeIdx,
               &simd::sse42::CountWithinInterleaved, &simd::sse42::LowerBound,
               &simd::sse42::UpperBound, &simd::sse42::MinMaxXY,
               &simd::sse42::MinMaxFinite});
#endif
#if TYCOS_SIMD_LEVEL >= 2
  v.push_back({"avx2", &simd::avx2::ChebyshevToProbe,
               &simd::avx2::ChebyshevToProbeIdx,
               &simd::avx2::CountWithinInterleaved, &simd::avx2::LowerBound,
               &simd::avx2::UpperBound, &simd::avx2::MinMaxXY,
               &simd::avx2::MinMaxFinite});
#endif
  return v;
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

// Sizes crossing the 2-lane and 4-lane tails and the bound-search block.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100};

TEST(SimdTest, InstructionSetMatchesCompiledLevel) {
#if TYCOS_SIMD_LEVEL >= 2
  EXPECT_STREQ(simd::InstructionSet(), "avx2");
  EXPECT_EQ(simd::LaneCount(), 4u);
#elif TYCOS_SIMD_LEVEL >= 1
  EXPECT_STREQ(simd::InstructionSet(), "sse4.2");
  EXPECT_EQ(simd::LaneCount(), 2u);
#else
  EXPECT_STREQ(simd::InstructionSet(), "scalar");
  EXPECT_EQ(simd::LaneCount(), 1u);
#endif
}

TEST(SimdTest, ChebyshevToProbeBitExact) {
  for (const Kernels& k : AllLevels()) {
    for (Mix mix : {Mix::kUniform, Mix::kDenormal, Mix::kHostile}) {
      for (size_t n : kSizes) {
        SCOPED_TRACE(testing::Message()
                     << k.name << " mix=" << static_cast<int>(mix)
                     << " n=" << n);
        const std::vector<double> xy =
            MakeArray(2 * n, mix, 11 * n + static_cast<size_t>(mix));
        std::mt19937_64 rng(99 + n);
        const double px = Draw(rng, mix);
        const double py = Draw(rng, mix);
        std::vector<double> got(n, -1.0), want(n, -1.0);
        k.cheb(xy.data(), n, px, py, got.data());
        simd::ChebyshevToProbeScalar(xy.data(), n, px, py, want.data());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(Bits(got[i]), Bits(want[i])) << "i=" << i;
        }
      }
    }
  }
}

TEST(SimdTest, ChebyshevToProbeIdxBitExact) {
  for (const Kernels& k : AllLevels()) {
    for (Mix mix : {Mix::kUniform, Mix::kDenormal, Mix::kHostile}) {
      for (size_t n : kSizes) {
        SCOPED_TRACE(testing::Message()
                     << k.name << " mix=" << static_cast<int>(mix)
                     << " n=" << n);
        const size_t n_points = 2 * n + 7;  // candidate list over more points
        const std::vector<double> xy =
            MakeArray(2 * n_points, mix, 5 * n + static_cast<size_t>(mix));
        std::mt19937_64 rng(123 + n);
        std::vector<int32_t> idx(n);
        for (int32_t& v : idx) {
          v = static_cast<int32_t>(rng() % n_points);
        }
        const double px = Draw(rng, mix);
        const double py = Draw(rng, mix);
        std::vector<double> got(n, -1.0), want(n, -1.0);
        k.cheb_idx(xy.data(), idx.data(), n, px, py, got.data());
        simd::ChebyshevToProbeIdxScalar(xy.data(), idx.data(), n, px, py,
                                        want.data());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(Bits(got[i]), Bits(want[i])) << "i=" << i;
        }
      }
    }
  }
}

TEST(SimdTest, CountWithinBothMarginalsExact) {
  for (const Kernels& k : AllLevels()) {
    for (Mix mix : {Mix::kUniform, Mix::kDenormal, Mix::kHostile}) {
      for (size_t n : kSizes) {
        const std::vector<double> xy =
            MakeArray(2 * n, mix, 7 * n + static_cast<size_t>(mix));
        std::mt19937_64 rng(7 + n);
        for (int rep = 0; rep < 4; ++rep) {
          const double center = Draw(rng, mix);
          const double d = std::fabs(Draw(rng, mix));
          // The y marginal starts at xy + 1: exercises the odd-offset
          // bounds guard in the strided loads.
          for (size_t off : {size_t{0}, size_t{1}}) {
            SCOPED_TRACE(testing::Message()
                         << k.name << " mix=" << static_cast<int>(mix)
                         << " n=" << n << " off=" << off);
            if (n == 0 && off == 1) continue;
            const double* base = xy.data() + off;
            EXPECT_EQ(k.count(base, n, center, d),
                      simd::CountWithinInterleavedScalar(base, n, center, d));
          }
        }
      }
    }
  }
}

TEST(SimdTest, BoundSearchesMatchStd) {
  for (const Kernels& k : AllLevels()) {
    for (Mix mix : {Mix::kUniform, Mix::kDenormal}) {
      for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{5}, size_t{31},
                       size_t{32}, size_t{33}, size_t{100}, size_t{1000}}) {
        SCOPED_TRACE(testing::Message()
                     << k.name << " mix=" << static_cast<int>(mix)
                     << " n=" << n);
        // Sorted, NaN-free (the documented precondition); ±inf allowed.
        std::vector<double> v =
            MakeArray(n, mix, 13 * n + static_cast<size_t>(mix));
        if (n >= 2) {
          v[0] = -std::numeric_limits<double>::infinity();
          v[1] = std::numeric_limits<double>::infinity();
        }
        std::sort(v.begin(), v.end());
        std::mt19937_64 rng(31 + n);
        std::vector<double> keys;
        for (int rep = 0; rep < 8; ++rep) {
          double key = Draw(rng, mix);
          if (std::isnan(key)) key = 0.0;
          keys.push_back(key);
        }
        for (double x : v) keys.push_back(x);  // exact hits force ties
        for (double key : keys) {
          EXPECT_EQ(k.lower(v.data(), n, key),
                    simd::LowerBoundScalar(v.data(), n, key))
              << "key=" << key;
          EXPECT_EQ(k.upper(v.data(), n, key),
                    simd::UpperBoundScalar(v.data(), n, key))
              << "key=" << key;
        }
      }
    }
  }
}

TEST(SimdTest, MinMaxXYMatchesScalarFold) {
  for (const Kernels& k : AllLevels()) {
    for (Mix mix : {Mix::kUniform, Mix::kDenormal, Mix::kHostile}) {
      for (size_t n : kSizes) {
        if (n == 0) continue;  // kernels require n >= 1
        SCOPED_TRACE(testing::Message()
                     << k.name << " mix=" << static_cast<int>(mix)
                     << " n=" << n);
        const std::vector<double> xy =
            MakeArray(2 * n, mix, 17 * n + static_cast<size_t>(mix));
        const simd::MinMaxXYResult got = k.minmax_xy(xy.data(), n);
        const simd::MinMaxXYResult want =
            simd::MinMaxXYScalar(xy.data(), n);
        EXPECT_TRUE(SameValue(got.min_x, want.min_x))
            << got.min_x << " vs " << want.min_x;
        EXPECT_TRUE(SameValue(got.max_x, want.max_x))
            << got.max_x << " vs " << want.max_x;
        EXPECT_TRUE(SameValue(got.min_y, want.min_y))
            << got.min_y << " vs " << want.min_y;
        EXPECT_TRUE(SameValue(got.max_y, want.max_y))
            << got.max_y << " vs " << want.max_y;
      }
    }
  }
}

TEST(SimdTest, MinMaxXYNaNInPointZeroPoisons) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Kernels& k : AllLevels()) {
    SCOPED_TRACE(k.name);
    const std::vector<double> xy = {nan, 1.0, 2.0, 3.0, 4.0, 5.0};
    const simd::MinMaxXYResult got = k.minmax_xy(xy.data(), 3);
    EXPECT_TRUE(std::isnan(got.min_x));
    EXPECT_TRUE(std::isnan(got.max_x));
    EXPECT_EQ(got.min_y, 1.0);  // y marginal unaffected
    EXPECT_EQ(got.max_y, 5.0);
    // A NaN later in the array is skipped, as in the scalar fold.
    const std::vector<double> xy2 = {1.0, 2.0, nan, nan, 3.0, 0.5};
    const simd::MinMaxXYResult got2 = k.minmax_xy(xy2.data(), 3);
    EXPECT_EQ(got2.min_x, 1.0);
    EXPECT_EQ(got2.max_x, 3.0);
    EXPECT_EQ(got2.min_y, 0.5);
    EXPECT_EQ(got2.max_y, 2.0);
  }
}

TEST(SimdTest, MinMaxFiniteMatchesScalar) {
  for (const Kernels& k : AllLevels()) {
    for (Mix mix : {Mix::kUniform, Mix::kDenormal, Mix::kHostile}) {
      for (size_t n : kSizes) {
        if (n == 0) continue;
        SCOPED_TRACE(testing::Message()
                     << k.name << " mix=" << static_cast<int>(mix)
                     << " n=" << n);
        const std::vector<double> v =
            MakeArray(n, mix, 23 * n + static_cast<size_t>(mix));
        const simd::MinMaxFiniteResult got = k.minmax_finite(v.data(), n);
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
}

}  // namespace
}  // namespace tycos
