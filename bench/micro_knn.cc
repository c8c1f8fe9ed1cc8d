// Micro-benchmark: kNN backends (brute scan vs k-d tree vs grid) — the
// data-structure ablation of Section 5.1's complexity discussion;
// BM_BruteAllPoints is the per-point search every incremental re-search
// runs — plus the BM_Kernel* rows: simd::ChebyshevToProbe,
// simd::KnnExtentsAll (with and without neighbour lists) and
// simd::MarginalCountsAll against their scalar twins on the same buffers,
// isolating the SIMD win from the data-structure logic around it (source
// of BENCH_kernels.json).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "knn/brute_knn.h"
#include "knn/grid_index.h"
#include "knn/kd_tree.h"

namespace {

using namespace tycos;

std::vector<Point2> MakePoints(int64_t m) {
  Rng rng(7);
  std::vector<Point2> pts(static_cast<size_t>(m));
  for (auto& p : pts) {
    p.x = rng.Normal();
    p.y = rng.Normal();
  }
  return pts;
}

void BM_BruteAllPoints(benchmark::State& state) {
  const auto pts = MakePoints(state.range(0));
  for (auto _ : state) {
    for (size_t i = 0; i < pts.size(); ++i) {
      benchmark::DoNotOptimize(BruteKnnExtents(pts, i, 4));
    }
  }
}
BENCHMARK(BM_BruteAllPoints)
    ->Arg(16)
    ->Arg(64)
    ->Arg(96)
    ->Arg(256)
    ->Arg(384)
    ->Arg(512)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_KdTreeBuildAndQueryAll(benchmark::State& state) {
  const auto pts = MakePoints(state.range(0));
  for (auto _ : state) {
    KdTree tree(pts);
    for (size_t i = 0; i < pts.size(); ++i) {
      benchmark::DoNotOptimize(tree.QueryExtents(i, 4));
    }
  }
}
BENCHMARK(BM_KdTreeBuildAndQueryAll)
    ->Arg(64)
    ->Arg(256)
    ->Arg(384)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_GridBuildAndQueryAll(benchmark::State& state) {
  const auto pts = MakePoints(state.range(0));
  for (auto _ : state) {
    GridIndex grid(pts);
    for (size_t i = 0; i < pts.size(); ++i) {
      benchmark::DoNotOptimize(grid.QueryExtents(i, 4));
    }
  }
}
BENCHMARK(BM_GridBuildAndQueryAll)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

// --- Kernel rows: vectorized tycos::simd entry point vs scalar twin. ---

std::vector<double> MakeInterleaved(int64_t m) {
  Rng rng(11);
  std::vector<double> xy(static_cast<size_t>(2 * m));
  for (auto& v : xy) v = rng.Normal();
  return xy;
}

template <void (*Fn)(const double*, size_t, double, double, double*)>
void BM_KernelChebyshevToProbe(benchmark::State& state) {
  const auto xy = MakeInterleaved(state.range(0));
  std::vector<double> out(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Fn(xy.data(), out.size(), 0.25, -0.5, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_KernelChebyshevToProbe<&simd::ChebyshevToProbe>)
    ->Name("BM_KernelChebyshevToProbe/simd")
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KernelChebyshevToProbe<&simd::ChebyshevToProbeScalar>)
    ->Name("BM_KernelChebyshevToProbe/scalar")
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

using KnnKernel = void (*)(const double*, const double*, size_t, size_t,
                           double*, double*, KnnEntry*);

// All-points k = 4 extents of n points (the batch estimator's brute path)
// and, with kLists, their neighbour lists too (the incremental estimator's
// rebuild). Each iteration takes the next of 256 windows cut at evenly
// spaced starts from one 65,536-sample series, as a search meets windows:
// on one repeated window the branch predictor learns the kernel's
// data-dependent branches and the rows read up to about twice as fast.
template <KnnKernel Fn, bool kLists>
void BM_KernelKnn(benchmark::State& state) {
  constexpr size_t kSeries = size_t{1} << 16;
  constexpr size_t kPool = 256;
  // 2 * kSeries normal draws: x is the first half, y the second.
  static const std::vector<double> xy =
      MakeInterleaved(static_cast<int64_t>(kSeries));
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> dx(n), dy(n);
  std::vector<KnnEntry> lists(n * 4);
  size_t next = 0;
  for (auto _ : state) {
    const size_t start = next * (kSeries - n) / kPool;
    Fn(xy.data() + start, xy.data() + kSeries + start, n, 4, dx.data(),
       dy.data(), kLists ? lists.data() : nullptr);
    benchmark::DoNotOptimize(dx.data());
    benchmark::DoNotOptimize(dy.data());
    benchmark::DoNotOptimize(lists.data());
    benchmark::ClobberMemory();
    next = next + 1 == kPool ? 0 : next + 1;
  }
}

// The search's window sizes (16-96 on pairwise_short, 64-512 on
// pairwise_long) and the AVX2 pass-1 warm-up's end at 16k = 64.
void KnnSizes(benchmark::internal::Benchmark* b) {
  for (int64_t n : {16, 32, 64, 96, 128, 256, 512, 1024}) b->Arg(n);
  b->Unit(benchmark::kMicrosecond);
}
BENCHMARK(BM_KernelKnn<&simd::KnnExtentsAll, false>)
    ->Name("BM_KernelKnnExtents/simd")
    ->Apply(KnnSizes);
BENCHMARK(BM_KernelKnn<&simd::KnnExtentsAllScalar, false>)
    ->Name("BM_KernelKnnExtents/scalar")
    ->Apply(KnnSizes);
BENCHMARK(BM_KernelKnn<&simd::KnnExtentsAll, true>)
    ->Name("BM_KernelKnnLists/simd")
    ->Apply(KnnSizes);
BENCHMARK(BM_KernelKnn<&simd::KnnExtentsAllScalar, true>)
    ->Name("BM_KernelKnnLists/scalar")
    ->Apply(KnnSizes);

// Both marginal counts of n points inside their k = 4 extents: the batch
// estimator's count pass, on the extents KnnExtentsAll gives the same
// buffer.
template <void (*Fn)(const double*, const double*, size_t, const double*,
                     const double*, int64_t*, int64_t*)>
void BM_KernelMarginalCounts(benchmark::State& state) {
  const auto xy = MakeInterleaved(state.range(0));
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> dx(n), dy(n);
  simd::KnnExtentsAllScalar(xy.data(), xy.data() + n, n, 4, dx.data(),
                            dy.data());
  std::vector<int64_t> nx(n), ny(n);
  for (auto _ : state) {
    Fn(xy.data(), xy.data() + n, n, dx.data(), dy.data(), nx.data(),
       ny.data());
    benchmark::DoNotOptimize(nx.data());
    benchmark::DoNotOptimize(ny.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelMarginalCounts<&simd::MarginalCountsAll>)
    ->Name("BM_KernelMarginalCounts/simd")
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KernelMarginalCounts<&simd::MarginalCountsAllScalar>)
    ->Name("BM_KernelMarginalCounts/scalar")
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
