// Micro-benchmark: KSG MI estimation cost per window size and backend, plus
// the alternative estimators — the ablation behind choosing KSG (Section
// 3.1) and behind searching with brute force alone: one whole KsgMi call
// through each backend from 16 to 4096 samples, so the rows show where the
// k-d tree and the grid overtake brute force (BENCH_kernels.json,
// knn_backends).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/math.h"
#include "common/rng.h"
#include "mi/histogram_mi.h"
#include "mi/ksg.h"
#include "mi/pearson.h"

namespace {

using namespace tycos;

void MakeData(int64_t m, std::vector<double>* xs, std::vector<double>* ys) {
  Rng rng(42);
  xs->resize(static_cast<size_t>(m));
  ys->resize(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    (*xs)[static_cast<size_t>(i)] = rng.Normal();
    (*ys)[static_cast<size_t>(i)] =
        0.7 * (*xs)[static_cast<size_t>(i)] + rng.Normal();
  }
}

void BM_KsgBrute(benchmark::State& state) {
  std::vector<double> xs, ys;
  MakeData(state.range(0), &xs, &ys);
  KsgOptions o;
  o.backend = KnnBackend::kBrute;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KsgMi(xs, ys, o));
  }
}
BENCHMARK(BM_KsgBrute)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(384)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_KsgKdTree(benchmark::State& state) {
  std::vector<double> xs, ys;
  MakeData(state.range(0), &xs, &ys);
  KsgOptions o;
  o.backend = KnnBackend::kKdTree;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KsgMi(xs, ys, o));
  }
}
BENCHMARK(BM_KsgKdTree)
    ->Arg(64)
    ->Arg(256)
    ->Arg(384)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_KsgGrid(benchmark::State& state) {
  std::vector<double> xs, ys;
  MakeData(state.range(0), &xs, &ys);
  KsgOptions o;
  o.backend = KnnBackend::kGrid;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KsgMi(xs, ys, o));
  }
}
BENCHMARK(BM_KsgGrid)
    ->Arg(64)
    ->Arg(256)
    ->Arg(384)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_HistogramMi(benchmark::State& state) {
  std::vector<double> xs, ys;
  MakeData(state.range(0), &xs, &ys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HistogramMi(xs, ys));
  }
}
BENCHMARK(BM_HistogramMi)->Arg(256)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_Pearson(benchmark::State& state) {
  std::vector<double> xs, ys;
  MakeData(state.range(0), &xs, &ys);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PearsonCorrelation(xs, ys));
  }
}
BENCHMARK(BM_Pearson)->Arg(256)->Arg(4096)->Unit(benchmark::kMicrosecond);

void BM_NormalizedMi(benchmark::State& state) {
  std::vector<double> xs, ys;
  MakeData(state.range(0), &xs, &ys);
  const auto mode = static_cast<MiNormalization>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(NormalizedMi(xs, ys, {}, mode));
  }
}
BENCHMARK(BM_NormalizedMi)
    ->Args({512, 0})   // entropy ratio
    ->Args({512, 1})   // correlation coefficient
    ->Unit(benchmark::kMicrosecond);

// --- Kernel row: batched digamma accumulation vs the per-call loop. ---

void MakeCounts(int64_t m, std::vector<int64_t>* nx,
                std::vector<int64_t>* ny) {
  Rng rng(5);
  nx->resize(static_cast<size_t>(m));
  ny->resize(static_cast<size_t>(m));
  for (int64_t i = 0; i < m; ++i) {
    // KSG marginal counts: small integers skewed toward k-ish values.
    (*nx)[static_cast<size_t>(i)] = rng.UniformInt(1, 32);
    (*ny)[static_cast<size_t>(i)] = rng.UniformInt(1, 32);
  }
}

void BM_KernelDigammaBatch(benchmark::State& state) {
  std::vector<int64_t> nx, ny;
  MakeCounts(state.range(0), &nx, &ny);
  DigammaTable psi;
  for (auto _ : state) {
    benchmark::DoNotOptimize(psi.SumPairs(nx.data(), ny.data(), nx.size()));
  }
}
BENCHMARK(BM_KernelDigammaBatch)
    ->Name("BM_KernelDigamma/batch")
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

void BM_KernelDigammaPerCall(benchmark::State& state) {
  std::vector<int64_t> nx, ny;
  MakeCounts(state.range(0), &nx, &ny);
  DigammaTable psi;
  for (auto _ : state) {
    double sum = 0.0;
    for (size_t i = 0; i < nx.size(); ++i) {
      sum += psi(static_cast<size_t>(nx[i])) +
             psi(static_cast<size_t>(ny[i]));
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_KernelDigammaPerCall)
    ->Name("BM_KernelDigamma/per_call")
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
