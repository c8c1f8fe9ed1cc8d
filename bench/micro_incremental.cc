// Micro-benchmark: the Section 7 incremental MI computation vs recomputing
// each window from scratch, for the window-edit patterns the LAHC search
// actually generates (grow by δ, slide by δ). This is the ablation behind
// the TYCOS_LM speedups of Fig. 9.
//
// The grow and slide rows time the same 16 windows per iteration. The
// incremental rows build their estimator once, outside the timed region,
// and move it to a disjoint window with timing paused before each
// iteration, so the first window is a full rebuild (as it is from scratch)
// and the other 15 are incremental edits.
//
// The neighbourhood rows replay one climb step: the 26 neighbours of an
// m-sample window at δ = 4, sorted by delay as Tycos::GenerateNeighbors
// sorts them, so each of the three delays costs the incremental estimator
// one rebuild followed by same-delay moves.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "mi/incremental_ksg.h"
#include "mi/ksg.h"

namespace {

using namespace tycos;

// Far from every timed window: a jump from here always rebuilds.
constexpr int64_t kResetStart = 10000;

SeriesPair MakePair(int64_t n) {
  Rng rng(5);
  std::vector<double> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    x[static_cast<size_t>(i)] = rng.Normal();
    y[static_cast<size_t>(i)] = 0.6 * x[static_cast<size_t>(i)] + rng.Normal();
  }
  return SeriesPair(TimeSeries(std::move(x)), TimeSeries(std::move(y)));
}

// Grow the window end by δ repeatedly, recomputing from scratch each time.
void BM_GrowScratch(benchmark::State& state) {
  const int64_t m = state.range(0);
  static const SeriesPair pair = MakePair(20000);
  KsgOptions o;
  for (auto _ : state) {
    for (int64_t step = 0; step < 16; ++step) {
      benchmark::DoNotOptimize(KsgMi(pair, Window(0, m - 1 + 4 * step, 0), o));
    }
  }
}
BENCHMARK(BM_GrowScratch)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

// The same edit sequence through the incremental estimator.
void BM_GrowIncremental(benchmark::State& state) {
  const int64_t m = state.range(0);
  static const SeriesPair pair = MakePair(20000);
  IncrementalKsg inc(pair, 4);
  for (auto _ : state) {
    state.PauseTiming();
    inc.SetWindow(Window(kResetStart, kResetStart + m - 1, 0));
    state.ResumeTiming();
    for (int64_t step = 0; step < 16; ++step) {
      benchmark::DoNotOptimize(inc.SetWindow(Window(0, m - 1 + 4 * step, 0)));
    }
  }
}
BENCHMARK(BM_GrowIncremental)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_SlideScratch(benchmark::State& state) {
  const int64_t m = state.range(0);
  static const SeriesPair pair = MakePair(20000);
  KsgOptions o;
  for (auto _ : state) {
    for (int64_t step = 0; step < 16; ++step) {
      benchmark::DoNotOptimize(
          KsgMi(pair, Window(4 * step, m - 1 + 4 * step, 0), o));
    }
  }
}
BENCHMARK(BM_SlideScratch)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_SlideIncremental(benchmark::State& state) {
  const int64_t m = state.range(0);
  static const SeriesPair pair = MakePair(20000);
  IncrementalKsg inc(pair, 4);
  for (auto _ : state) {
    state.PauseTiming();
    inc.SetWindow(Window(kResetStart, kResetStart + m - 1, 0));
    state.ResumeTiming();
    for (int64_t step = 0; step < 16; ++step) {
      benchmark::DoNotOptimize(
          inc.SetWindow(Window(4 * step, m - 1 + 4 * step, 0)));
    }
  }
}
BENCHMARK(BM_SlideIncremental)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// The 26 neighbours of Window(1000, 1000 + m - 1, 0) at δ = 4 in
// Tycos::GenerateNeighbors' order: by delay, then start, then end.
std::vector<Window> Neighbourhood(int64_t m) {
  constexpr int64_t kStart = 1000;
  const int64_t offsets[3] = {-4, 0, 4};
  std::vector<Window> out;
  for (int64_t dt : offsets) {
    for (int64_t ds : offsets) {
      for (int64_t de : offsets) {
        if (ds == 0 && de == 0 && dt == 0) continue;
        out.emplace_back(kStart + ds, kStart + m - 1 + de, dt);
      }
    }
  }
  return out;
}

void BM_NeighbourhoodScratch(benchmark::State& state) {
  static const SeriesPair pair = MakePair(20000);
  const std::vector<Window> windows = Neighbourhood(state.range(0));
  KsgOptions o;
  for (auto _ : state) {
    for (const Window& w : windows) {
      benchmark::DoNotOptimize(KsgMi(pair, w, o));
    }
  }
}
BENCHMARK(BM_NeighbourhoodScratch)
    ->Arg(96)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_NeighbourhoodIncremental(benchmark::State& state) {
  static const SeriesPair pair = MakePair(20000);
  const std::vector<Window> windows = Neighbourhood(state.range(0));
  IncrementalKsg inc(pair, 4);
  for (auto _ : state) {
    state.PauseTiming();
    inc.SetWindow(
        Window(kResetStart, kResetStart + state.range(0) - 1, 0));
    state.ResumeTiming();
    for (const Window& w : windows) {
      benchmark::DoNotOptimize(inc.SetWindow(w));
    }
  }
}
BENCHMARK(BM_NeighbourhoodIncremental)
    ->Arg(96)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
