// Micro-benchmark: kNN backends (brute scan vs k-d tree vs grid) and the
// Fenwick rank index — the data-structure ablation of Section 5.1's
// complexity discussion; BM_BruteAllPoints is the per-point search every
// incremental rebuild runs — plus the BM_Kernel* rows:
// simd::ChebyshevToProbe and simd::KnnExtentsAll against their scalar twins
// on the same buffers, isolating the SIMD win from the data-structure logic
// around it (source of BENCH_kernels.json).

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "knn/brute_knn.h"
#include "knn/grid_index.h"
#include "knn/kd_tree.h"
#include "knn/rank_index.h"

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

void BM_RankIndexOps(benchmark::State& state) {
  Rng rng(9);
  std::vector<double> universe(static_cast<size_t>(state.range(0)));
  for (auto& v : universe) v = rng.Normal();
  RankIndex index(universe);
  size_t i = 0;
  for (auto _ : state) {
    index.Insert(universe[i % universe.size()]);
    benchmark::DoNotOptimize(index.CountInRange(-0.5, 0.5));
    index.Erase(universe[i % universe.size()]);
    ++i;
  }
}
BENCHMARK(BM_RankIndexOps)->Arg(1024)->Arg(65536)->Unit(benchmark::kNanosecond);

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

// All-points k = 4 extents of n points: the batch estimator's brute path.
template <void (*Fn)(const double*, const double*, size_t, size_t, double*,
                     double*)>
void BM_KernelKnnExtents(benchmark::State& state) {
  // 2n normal draws: x is the first half, y the second.
  const auto xy = MakeInterleaved(state.range(0));
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> dx(n), dy(n);
  for (auto _ : state) {
    Fn(xy.data(), xy.data() + n, n, 4, dx.data(), dy.data());
    benchmark::DoNotOptimize(dx.data());
    benchmark::DoNotOptimize(dy.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KernelKnnExtents<&simd::KnnExtentsAll>)
    ->Name("BM_KernelKnnExtents/simd")
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_KernelKnnExtents<&simd::KnnExtentsAllScalar>)
    ->Name("BM_KernelKnnExtents/scalar")
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
