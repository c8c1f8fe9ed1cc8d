// Micro-benchmark: FFT substrate (radix-2 vs Bluestein sizes), the
// sliding-dot-product kernel that powers MASS / MatrixProfile, and the
// prefilter's stage-2 kernel (simd::SlidingDots) against its scalar twin
// (source of BENCH_kernels.json's sliding_dots block, whose MASS rows
// timed stage 2's former MASS branch on the same placements).

#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "fft/fft.h"
#include "fft/sliding_dot.h"

namespace {

using namespace tycos;

void BM_FftPowerOfTwo(benchmark::State& state) {
  Rng rng(1);
  std::vector<Complex> data(static_cast<size_t>(state.range(0)));
  for (auto& c : data) c = Complex(rng.Normal(), rng.Normal());
  for (auto _ : state) {
    std::vector<Complex> copy = data;
    Fft(&copy, false);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_FftPowerOfTwo)
    ->Arg(1024)
    ->Arg(16384)
    ->Unit(benchmark::kMicrosecond);

void BM_FftBluestein(benchmark::State& state) {
  Rng rng(2);
  std::vector<Complex> data(static_cast<size_t>(state.range(0)));
  for (auto& c : data) c = Complex(rng.Normal(), rng.Normal());
  for (auto _ : state) {
    benchmark::DoNotOptimize(FftAnySize(data, false));
  }
}
BENCHMARK(BM_FftBluestein)
    ->Arg(1000)
    ->Arg(12289)
    ->Unit(benchmark::kMicrosecond);

void BM_MassDistanceProfile(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> series(static_cast<size_t>(state.range(0)));
  for (auto& v : series) v = rng.Normal();
  std::vector<double> query(series.begin(), series.begin() + 128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MassDistanceProfile(query, series));
  }
}
BENCHMARK(BM_MassDistanceProfile)
    ->Arg(4096)
    ->Arg(32768)
    ->Unit(benchmark::kMicrosecond);

// --- Stage-2 rows: one 128-sample query against a band of windows, the
// work of one (pair, direction, grid start) at td_max = (band - 1) / 2.
// Each iteration takes the next of 256 query/band placements cut from one
// 65,536-sample series, as stage 2 meets them.

constexpr size_t kQuery = 128;

const std::vector<double>& StageTwoSeries() {
  static const std::vector<double> series = [] {
    Rng rng(5);
    std::vector<double> v(size_t{1} << 16);
    for (auto& x : v) x = rng.Normal();
    return v;
  }();
  return series;
}

// Start of placement k: queries and bands spread over the series, the
// band never overlapping its query.
size_t Placement(size_t k) { return (k % 256) * 241; }

using DotsKernel = void (*)(const double*, size_t, const double*, size_t,
                            double*);

template <DotsKernel Fn>
void BM_KernelSlidingDots(benchmark::State& state) {
  const std::vector<double>& series = StageTwoSeries();
  const size_t band = static_cast<size_t>(state.range(0));
  std::vector<double> out(band);
  size_t k = 0;
  for (auto _ : state) {
    const size_t at = Placement(k++);
    Fn(series.data() + at, kQuery, series.data() + at + 2 * kQuery, band,
       out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelSlidingDots<&simd::SlidingDots>)
    ->Name("BM_KernelSlidingDots/simd")
    ->Arg(1)
    ->Arg(13)
    ->Arg(17)
    ->Arg(33)
    ->Arg(63)
    ->Arg(65)
    ->Arg(129)
    ->Arg(257)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KernelSlidingDots<&simd::SlidingDotsScalar>)
    ->Name("BM_KernelSlidingDots/scalar")
    ->Arg(1)
    ->Arg(13)
    ->Arg(17)
    ->Arg(33)
    ->Arg(63)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
