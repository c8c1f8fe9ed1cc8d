// Parallel scaling of the pair sweep: runs the full 9-channel energy
// simulation sweep (fig. 10-scale params, ~2000 samples/channel, 36 pairs)
// at 1/2/4/8 threads — once with one unit per pair (num_restarts = 0) and
// once with num_restarts > 0, where every restart climb is its own unit of
// the same (pair x climb) scheduler — then times the durable runner
// against the plain sweep at both settings, verifies every run is
// bit-identical to its sequential reference, and writes a machine-readable
// BENCH_parallel.json.
//
// Speedup is bounded by the host's core count (recorded in the JSON's
// "host" block along with the SIMD level); on a single-core container all
// thread counts report ~1x. The determinism check is meaningful regardless
// of the hardware.
//
// Usage: parallel_scaling [OUT.json] [--smoke]
//   --smoke shrinks the workload (~1 day of samples) so CI can exercise
//   the full code path in seconds; the numbers are not comparable to a
//   committed BENCH_parallel.json.

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/energy_sim.h"
#include "jobs/durable_pairwise.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "search/pairwise.h"

namespace {

using namespace tycos;
using tycos::bench::TimeIt;

TycosParams Params() {
  TycosParams p;
  p.sigma = 0.55;
  p.s_min = 16;
  p.s_max = 96;
  p.td_max = 6;
  p.delta = 2;
  return p;
}

bool SameResults(const PairwiseResult& a, const PairwiseResult& b) {
  if (a.entries.size() != b.entries.size()) return false;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    const PairwiseEntry& x = a.entries[i];
    const PairwiseEntry& y = b.entries[i];
    if (x.a != y.a || x.b != y.b || x.best_score != y.best_score ||
        x.windows.size() != y.windows.size()) {
      return false;
    }
    for (size_t j = 0; j < x.windows.size(); ++j) {
      const Window& u = x.windows.windows()[j];
      const Window& v = y.windows.windows()[j];
      if (u.start != v.start || u.end != v.end || u.delay != v.delay ||
          u.mi != v.mi) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_parallel.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  datagen::EnergySimOptions opts;
  // ~288 samples/day per channel at 5-minute resolution.
  opts.days = smoke ? 1 : 7;
  const datagen::EnergySimulator sim(opts);
  std::vector<TimeSeries> channels;
  for (int c = 0; c < datagen::kNumEnergyChannels; ++c) {
    channels.push_back(sim.Channel(static_cast<datagen::EnergyChannel>(c)));
  }
  const int64_t n = sim.length();
  const int64_t total_pairs =
      static_cast<int64_t>(channels.size() * (channels.size() - 1) / 2);

  std::printf("=== Parallel pairwise scaling: %zu channels x %lld samples, "
              "%lld pairs ===\n",
              channels.size(), static_cast<long long>(n),
              static_cast<long long>(total_pairs));
  std::printf("%8s %10s %10s %10s %10s\n", "threads", "wall_s", "speedup",
              "pairs/s", "identical");
  tycos::bench::PrintRule(54);

  struct Row {
    int threads;
    double wall_s;
    double speedup;
    double pairs_per_s;
    bool identical;
  };
  std::vector<Row> rows;
  PairwiseResult reference;
  double base_s = 0.0;

  for (int threads : {1, 2, 4, 8}) {
    TycosParams p = Params();
    p.num_threads = threads;
    PairwiseResult result;
    const double wall_s = TimeIt(
        [&] { result = PairwiseSearch(channels, p, TycosVariant::kLMN, 7); });
    if (threads == 1) {
      reference = result;
      base_s = wall_s;
    }
    Row row;
    row.threads = threads;
    row.wall_s = wall_s;
    row.speedup = wall_s > 0 ? base_s / wall_s : 0.0;
    row.pairs_per_s = wall_s > 0 ? total_pairs / wall_s : 0.0;
    row.identical = SameResults(reference, result);
    rows.push_back(row);
    std::printf("%8d %10.3f %9.2fx %10.1f %10s\n", row.threads, row.wall_s,
                row.speedup, row.pairs_per_s, row.identical ? "yes" : "NO");
  }

  bool all_identical = true;
  for (const Row& r : rows) all_identical = all_identical && r.identical;

  // Flattened (pair x climb) scheduler: the same sweep with concurrent
  // restarts enabled. Every climb of every pair is its own schedulable
  // unit, so a handful of expensive pairs can no longer serialize the tail
  // of the fan-out — and the merge must still be bit-identical to the
  // sequential run at the same restart count.
  const int kRestarts = 4;
  std::printf("\n--- num_restarts = %d (flattened pair x climb units) ---\n",
              kRestarts);
  std::printf("%8s %10s %10s %10s %10s\n", "threads", "wall_s", "speedup",
              "pairs/s", "identical");
  tycos::bench::PrintRule(54);
  std::vector<Row> restart_rows;
  PairwiseResult restart_reference;
  double restart_base_s = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    TycosParams p = Params();
    p.num_threads = threads;
    p.num_restarts = kRestarts;
    PairwiseResult result;
    const double wall_s = TimeIt(
        [&] { result = PairwiseSearch(channels, p, TycosVariant::kLMN, 7); });
    if (threads == 1) {
      restart_reference = result;
      restart_base_s = wall_s;
    }
    Row row;
    row.threads = threads;
    row.wall_s = wall_s;
    row.speedup = wall_s > 0 ? restart_base_s / wall_s : 0.0;
    row.pairs_per_s = wall_s > 0 ? total_pairs / wall_s : 0.0;
    row.identical = SameResults(restart_reference, result);
    restart_rows.push_back(row);
    std::printf("%8d %10.3f %9.2fx %10.1f %10s\n", row.threads, row.wall_s,
                row.speedup, row.pairs_per_s, row.identical ? "yes" : "NO");
  }
  for (const Row& r : restart_rows) {
    all_identical = all_identical && r.identical;
  }

  // Durable-job overhead: the same sweep through ResumePairwiseSearch with a
  // fresh checkpoint, vs the plain engine at the same thread count and
  // restart setting — both run on the one (pair x climb) scheduler. Best of
  // three reps each so a single scheduler hiccup does not dominate; the
  // target is < 2% overhead (one small fwrite per pair, no fsync).
  const int ckpt_threads = 4;
  const std::string ckpt_path = out_path + ".ckpt";
  struct Checkpointed {
    int restarts = 0;
    double plain_s = 1e100;
    double durable_s = 1e100;
    bool identical = true;
    double overhead() const {
      return plain_s > 0 ? durable_s / plain_s - 1.0 : 0.0;
    }
  };
  const auto checkpointed = [&](int restarts, const PairwiseResult& want) {
    Checkpointed c;
    c.restarts = restarts;
    TycosParams p = Params();
    p.num_threads = ckpt_threads;
    p.num_restarts = restarts;
    for (int rep = 0; rep < 3; ++rep) {
      PairwiseResult plain;
      c.plain_s = std::min(c.plain_s, TimeIt([&] {
        plain = PairwiseSearch(channels, p, TycosVariant::kLMN, 7);
      }));
      std::remove(ckpt_path.c_str());
      jobs::DurableJobOptions dopts;
      dopts.checkpoint_path = ckpt_path;
      Result<jobs::DurableOutcome> durable = Status::Internal("unrun");
      c.durable_s = std::min(c.durable_s, TimeIt([&] {
        durable = jobs::ResumePairwiseSearch(channels, p, TycosVariant::kLMN,
                                             7, RunContext::None(), dopts);
      }));
      std::remove(ckpt_path.c_str());
      c.identical = c.identical && durable.ok() &&
                    SameResults(want, durable.value().result) &&
                    SameResults(want, plain);
    }
    std::printf("checkpointed run (%d threads, num_restarts = %d): plain "
                "%.3fs, durable %.3fs, overhead %+.2f%%, identical %s\n",
                ckpt_threads, restarts, c.plain_s, c.durable_s,
                c.overhead() * 100.0, c.identical ? "yes" : "NO");
    all_identical = all_identical && c.identical;
    return c;
  };
  std::printf("\n");
  const Checkpointed ckpt = checkpointed(0, reference);
  const Checkpointed ckpt_restarts = checkpointed(kRestarts, restart_reference);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"workload\": {\n");
  std::fprintf(f, "    \"generator\": \"energy_sim\",\n");
  std::fprintf(f, "    \"channels\": %zu,\n", channels.size());
  std::fprintf(f, "    \"samples_per_channel\": %lld,\n",
               static_cast<long long>(n));
  std::fprintf(f, "    \"pairs\": %lld,\n",
               static_cast<long long>(total_pairs));
  std::fprintf(f, "    \"variant\": \"LMN\",\n");
  std::fprintf(f, "    \"sigma\": %.2f, \"s_min\": 16, \"s_max\": 96, "
               "\"td_max\": 6, \"delta\": 2\n",
               Params().sigma);
  std::fprintf(f, "  },\n");
  tycos::bench::WriteHostJson(f);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"identical_results\": %s,\n",
               all_identical ? "true" : "false");
  for (const auto& [key, c] :
       {std::pair{"checkpoint", ckpt},
        std::pair{"checkpoint_restarts", ckpt_restarts}}) {
    std::fprintf(f, "  \"%s\": {\n", key);
    std::fprintf(f, "    \"threads\": %d,\n", ckpt_threads);
    std::fprintf(f, "    \"num_restarts\": %d,\n", c.restarts);
    std::fprintf(f, "    \"plain_ms\": %.1f,\n", c.plain_s * 1000.0);
    std::fprintf(f, "    \"durable_ms\": %.1f,\n", c.durable_s * 1000.0);
    std::fprintf(f, "    \"checkpoint_overhead\": %.4f,\n", c.overhead());
    std::fprintf(f, "    \"identical\": %s\n",
                 c.identical ? "true" : "false");
    std::fprintf(f, "  },\n");
  }
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"wall_ms\": %.1f, "
                 "\"speedup\": %.3f, \"pairs_per_s\": %.2f}%s\n",
                 r.threads, r.wall_s * 1000.0, r.speedup, r.pairs_per_s,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"restart_runs\": {\n");
  std::fprintf(f, "    \"num_restarts\": %d,\n", kRestarts);
  std::fprintf(f, "    \"runs\": [\n");
  for (size_t i = 0; i < restart_rows.size(); ++i) {
    const Row& r = restart_rows[i];
    std::fprintf(f,
                 "      {\"threads\": %d, \"wall_ms\": %.1f, "
                 "\"speedup\": %.3f, \"pairs_per_s\": %.2f}%s\n",
                 r.threads, r.wall_s * 1000.0, r.speedup, r.pairs_per_s,
                 i + 1 < restart_rows.size() ? "," : "");
  }
  std::fprintf(f, "    ]\n  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  // Metrics sidecar: the obs-registry snapshot accumulated over all four
  // sweeps (see bench/README.md). Counter totals are thread-count-invariant,
  // so the sidecar doubles as a coarse determinism record for the run.
  std::string metrics_path = out_path;
  const std::string suffix = ".json";
  if (metrics_path.size() >= suffix.size() &&
      metrics_path.compare(metrics_path.size() - suffix.size(), suffix.size(),
                           suffix) == 0) {
    metrics_path.resize(metrics_path.size() - suffix.size());
  }
  metrics_path += ".metrics.json";
  const Status metrics_ok = obs::WriteJson(metrics_path, obs::Snapshot());
  if (metrics_ok.ok()) {
    std::printf("wrote %s\n", metrics_path.c_str());
  } else {
    std::fprintf(stderr, "metrics sidecar failed: %s\n",
                 metrics_ok.message().c_str());
  }
  return all_identical ? 0 : 1;
}
