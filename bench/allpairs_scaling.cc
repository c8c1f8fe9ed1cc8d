// All-pairs discovery at production channel counts: the prefilter cascade
// (search/allpairs.h) in front of the durable pairwise search, on a
// 1000-channel synthetic dataset with planted correlated clusters
// (datagen/clusters.h). Measures and asserts:
//
//   * pruning — the cascade must remove >= 95% of the C(1000, 2) = 499500
//     pair universe before TYCOS runs (the smoke tier asserts nonzero
//     pruning);
//   * recall — every planted intra-cluster pair must survive the cascade;
//   * determinism — the survivor list must be bit-identical at 1, 2, and
//     8 threads;
//   * resume — a run interrupted at a pair boundary (voluntary pause) and
//     resumed must produce entries bit-identical to an uninterrupted run;
//   * end-to-end wall time, per-stage timings, and the speedup over the
//     extrapolated full sweep.
//
// Any assertion failure exits nonzero, so CI's bench-smoke run is a
// correctness gate, not just a timing. Results are written to
// BENCH_allpairs.json plus an obs-registry sidecar.
//
// Usage: allpairs_scaling [OUT.json] [--smoke]
//   --smoke shrinks to 64 channels so CI exercises the full code path in
//   seconds; the numbers are not comparable to a committed
//   BENCH_allpairs.json.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/clusters.h"
#include "jobs/durable_pairwise.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "search/allpairs.h"

namespace {

using namespace tycos;
using tycos::bench::TimeIt;

bool SameEntries(const std::vector<PairwiseEntry>& a,
                 const std::vector<PairwiseEntry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].a != b[i].a || a[i].b != b[i].b ||
        a[i].best_score != b[i].best_score ||
        a[i].windows.size() != b[i].windows.size()) {
      return false;
    }
  }
  return true;
}

bool SameSurvivors(const std::vector<PrefilterSurvivor>& a,
                   const std::vector<PrefilterSurvivor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].a != b[i].a || a[i].b != b[i].b ||
        a[i].best_pearson != b[i].best_pearson) {
      return false;
    }
  }
  return true;
}

int Fail(const char* what) {
  std::fprintf(stderr, "FAIL: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_allpairs.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      out_path = arg;
    }
  }

  datagen::ClusterGenOptions gen;
  gen.num_channels = smoke ? 64 : 1000;
  gen.num_clusters = smoke ? 4 : 25;
  gen.channels_per_cluster = 4;
  gen.length = smoke ? 1024 : 2048;
  gen.max_delay = 8;
  gen.member_noise = 0.25;
  gen.seed = 42;

  datagen::ClusteredDataset ds;
  const double gen_s = TimeIt([&] {
    auto made = datagen::MakeCorrelatedClusters(gen);
    if (!made.ok()) {
      std::fprintf(stderr, "datagen failed: %s\n", made.status().message()
                                                       .c_str());
      std::exit(1);
    }
    ds = std::move(made.value());
  });

  TycosParams params;
  params.sigma = 0.5;
  params.s_min = 16;
  params.s_max = 96;
  params.td_max = 8;
  params.delta = 2;

  PrefilterParams prefilter;
  // hop = window (non-overlapping grid): halves the stage-2 scan count at
  // production scale; the recall property is asserted below against the
  // planted ground truth, not assumed.
  prefilter.window = 128;
  prefilter.hop = 128;
  prefilter.paa_segments = 16;
  prefilter.svd_dims = 3;
  // The cluster generator plants *linear* correlations (r ~ 0.94 at
  // alignment), so pruning exactly at T = sigma is lossless for this
  // workload; the conservative 0.75 default is for MI that can outrun its
  // linear correlation, which cannot happen here by construction.
  prefilter.mi_conservativeness = 1.0;

  const int64_t total_pairs = static_cast<int64_t>(gen.num_channels) *
                              (gen.num_channels - 1) / 2;
  std::printf("=== All-pairs discovery: %d channels x %lld samples, "
              "%lld pairs, %zu planted ===\n",
              gen.num_channels, static_cast<long long>(gen.length),
              static_cast<long long>(total_pairs), ds.pairs.size());
  std::printf("datagen: %.2fs\n", gen_s);

  // --- Prefilter determinism sweep: 1 / 2 / 8 threads --------------------
  const PrefilterParams resolved =
      ResolveAllPairsPrefilter(prefilter, params, gen.length);
  const double threshold = ResolvePearsonThreshold(resolved, params.sigma);
  std::printf("\ncascade: window %lld, hop %lld, td %lld, T = %.3f\n",
              static_cast<long long>(resolved.window),
              static_cast<long long>(resolved.hop),
              static_cast<long long>(resolved.td_max), threshold);
  std::printf("%8s %10s %10s %12s %12s %10s\n", "threads", "stage1_s",
              "stage2_s", "candidates", "survivors", "identical");
  tycos::bench::PrintRule(68);

  struct PrefilterRow {
    int threads;
    PrefilterStats stats;
    bool identical;
  };
  std::vector<PrefilterRow> prows;
  std::vector<PrefilterSurvivor> reference_survivors;
  for (int threads : {1, 2, 8}) {
    PrefilterParams p = resolved;
    p.num_threads = threads;
    auto out = RunPrefilter(ds.channels, p, threshold, RunContext());
    if (!out.ok() || out.value().stop.has_value()) {
      return Fail("prefilter run did not complete");
    }
    if (threads == 1) reference_survivors = out.value().survivors;
    PrefilterRow row;
    row.threads = threads;
    row.stats = out.value().stats;
    row.identical = SameSurvivors(reference_survivors, out.value().survivors);
    prows.push_back(row);
    std::printf("%8d %10.2f %10.2f %12lld %12lld %10s\n", threads,
                row.stats.stage1_seconds, row.stats.stage2_seconds,
                static_cast<long long>(row.stats.stage1_candidates),
                static_cast<long long>(row.stats.stage2_survivors),
                row.identical ? "yes" : "NO");
  }
  bool survivors_identical = true;
  for (const PrefilterRow& r : prows) {
    survivors_identical = survivors_identical && r.identical;
  }
  if (!survivors_identical) {
    return Fail("survivor sets differ across thread counts");
  }

  // --- Recall: every planted pair must survive the cascade ---------------
  int64_t planted_kept = 0;
  for (const datagen::PlantedClusterPair& p : ds.pairs) {
    for (const PrefilterSurvivor& s : reference_survivors) {
      if (s.a == p.a && s.b == p.b) {
        ++planted_kept;
        break;
      }
    }
  }
  const PrefilterStats& pstats = prows[0].stats;
  const double pruning = pstats.PruningRate();
  std::printf("\npruning: %lld of %lld pairs (%.2f%%), planted recall "
              "%lld/%zu\n",
              static_cast<long long>(total_pairs - pstats.stage2_survivors),
              static_cast<long long>(total_pairs), pruning * 100.0,
              static_cast<long long>(planted_kept), ds.pairs.size());
  if (planted_kept != static_cast<int64_t>(ds.pairs.size())) {
    return Fail("a planted pair was pruned");
  }
  if (smoke ? pruning <= 0.0 : pruning < 0.95) {
    return Fail(smoke ? "smoke run pruned nothing"
                      : "pruning rate below the 95% bar");
  }

  // --- End-to-end: durable all-pairs, uninterrupted ----------------------
  jobs::AllPairsJobOptions jopt;
  jopt.durable.checkpoint_path = out_path + ".ckpt";
  jopt.prefilter = prefilter;
  std::remove(jopt.durable.checkpoint_path.c_str());
  std::remove((jopt.durable.checkpoint_path + ".survivors").c_str());
  Result<jobs::AllPairsJobOutcome> full = Status::Internal("unrun");
  const double full_s = TimeIt([&] {
    full = jobs::ResumeAllPairsSearch(ds.channels, params, TycosVariant::kLMN,
                                      7, RunContext::None(), jopt);
  });
  if (!full.ok() ||
      full.value().durable.result.stop_reason != StopReason::kCompleted) {
    return Fail("end-to-end all-pairs run did not complete");
  }
  const jobs::AllPairsJobOutcome& fo = full.value();
  const int64_t survivors = static_cast<int64_t>(fo.survivors.size());
  const double tycos_s =
      full_s - fo.prefilter.stage1_seconds - fo.prefilter.stage2_seconds;
  // The full sweep this cascade replaces, extrapolated from the measured
  // per-survivor TYCOS cost (each pair's search is independent, so the
  // extrapolation is linear).
  const double est_full_sweep_s =
      survivors > 0 ? tycos_s * static_cast<double>(total_pairs) /
                          static_cast<double>(survivors) +
                          fo.prefilter.stage1_seconds +
                          fo.prefilter.stage2_seconds
                    : 0.0;
  std::printf("\nend-to-end: %.2fs (stage1 %.2fs, stage2 %.2fs, tycos "
              "%.2fs over %lld survivors)\n",
              full_s, fo.prefilter.stage1_seconds,
              fo.prefilter.stage2_seconds, tycos_s,
              static_cast<long long>(survivors));
  std::printf("estimated full sweep: %.1fs (%.1fx speedup)\n",
              est_full_sweep_s,
              full_s > 0 ? est_full_sweep_s / full_s : 0.0);

  // --- Interrupt at a pair boundary, resume, compare ---------------------
  jobs::AllPairsJobOptions stepped = jopt;
  stepped.durable.checkpoint_path = out_path + ".resume.ckpt";
  std::remove(stepped.durable.checkpoint_path.c_str());
  std::remove((stepped.durable.checkpoint_path + ".survivors").c_str());
  const int64_t pause_at = survivors > 1 ? survivors / 2 : 1;
  stepped.durable.max_pairs_this_run = pause_at;  // pause mid-universe
  auto first_half = jobs::ResumeAllPairsSearch(
      ds.channels, params, TycosVariant::kLMN, 7, RunContext::None(), stepped);
  if (!first_half.ok() || first_half.value().durable.result.stop_reason !=
                              StopReason::kPaused) {
    return Fail("interrupted run did not pause");
  }
  stepped.durable.max_pairs_this_run = 0;
  auto second_half = jobs::ResumeAllPairsSearch(
      ds.channels, params, TycosVariant::kLMN, 7, RunContext::None(), stepped);
  const bool resume_identical =
      second_half.ok() &&
      second_half.value().durable.result.stop_reason ==
          StopReason::kCompleted &&
      second_half.value().survivors_resumed &&
      SameEntries(second_half.value().durable.result.entries,
                  fo.durable.result.entries);
  std::printf("checkpoint/resume: paused at %lld pairs, resumed, "
              "identical %s\n",
              static_cast<long long>(pause_at),
              resume_identical ? "yes" : "NO");
  if (!resume_identical) {
    return Fail("resumed run is not bit-identical to the uninterrupted run");
  }
  std::remove(jopt.durable.checkpoint_path.c_str());
  std::remove((jopt.durable.checkpoint_path + ".survivors").c_str());
  std::remove(stepped.durable.checkpoint_path.c_str());
  std::remove((stepped.durable.checkpoint_path + ".survivors").c_str());

  // --- JSON ---------------------------------------------------------------
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"workload\": {\n");
  std::fprintf(f, "    \"generator\": \"correlated_clusters\",\n");
  std::fprintf(f, "    \"channels\": %d,\n", gen.num_channels);
  std::fprintf(f, "    \"samples_per_channel\": %lld,\n",
               static_cast<long long>(gen.length));
  std::fprintf(f, "    \"pairs\": %lld,\n",
               static_cast<long long>(total_pairs));
  std::fprintf(f, "    \"clusters\": %d,\n", gen.num_clusters);
  std::fprintf(f, "    \"planted_pairs\": %zu,\n", ds.pairs.size());
  std::fprintf(f, "    \"variant\": \"LMN\",\n");
  std::fprintf(f, "    \"sigma\": %.2f, \"s_min\": 16, \"s_max\": 96, "
               "\"td_max\": 8\n",
               params.sigma);
  std::fprintf(f, "  },\n");
  tycos::bench::WriteHostJson(f);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"cascade\": {\n");
  std::fprintf(f, "    \"window\": %lld, \"hop\": %lld, "
               "\"paa_segments\": %d, \"svd_dims\": %d,\n",
               static_cast<long long>(resolved.window),
               static_cast<long long>(resolved.hop), resolved.paa_segments,
               resolved.svd_dims);
  std::fprintf(f, "    \"pearson_threshold\": %.4f,\n", threshold);
  std::fprintf(f, "    \"epsilon1\": %.4f,\n", pstats.epsilon1);
  std::fprintf(f, "    \"stage1_candidates\": %lld,\n",
               static_cast<long long>(pstats.stage1_candidates));
  std::fprintf(f, "    \"stage2_survivors\": %lld,\n",
               static_cast<long long>(pstats.stage2_survivors));
  std::fprintf(f, "    \"pairs_pruned\": %lld,\n",
               static_cast<long long>(total_pairs - pstats.stage2_survivors));
  std::fprintf(f, "    \"pruning_rate\": %.6f,\n", pruning);
  std::fprintf(f, "    \"planted_recall\": %.4f,\n",
               ds.pairs.empty() ? 1.0
                                : static_cast<double>(planted_kept) /
                                      static_cast<double>(ds.pairs.size()));
  std::fprintf(f, "    \"survivors_identical_at_1_2_8_threads\": %s\n",
               survivors_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"end_to_end\": {\n");
  std::fprintf(f, "    \"datagen_s\": %.2f,\n", gen_s);
  std::fprintf(f, "    \"stage1_s\": %.2f,\n", fo.prefilter.stage1_seconds);
  std::fprintf(f, "    \"stage2_s\": %.2f,\n", fo.prefilter.stage2_seconds);
  std::fprintf(f, "    \"tycos_s\": %.2f,\n", tycos_s);
  std::fprintf(f, "    \"wall_s\": %.2f,\n", full_s);
  std::fprintf(f, "    \"estimated_full_sweep_s\": %.1f,\n",
               est_full_sweep_s);
  std::fprintf(f, "    \"speedup_vs_full_sweep\": %.1f,\n",
               full_s > 0 ? est_full_sweep_s / full_s : 0.0);
  std::fprintf(f, "    \"resume_identical\": %s\n",
               resume_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"prefilter_runs\": [\n");
  for (size_t i = 0; i < prows.size(); ++i) {
    const PrefilterRow& r = prows[i];
    std::fprintf(f,
                 "    {\"threads\": %d, \"stage1_s\": %.2f, "
                 "\"stage2_s\": %.2f, \"identical\": %s}%s\n",
                 r.threads, r.stats.stage1_seconds, r.stats.stage2_seconds,
                 r.identical ? "true" : "false",
                 i + 1 < prows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  // Metrics sidecar: the obs-registry snapshot (prefilter.* counters,
  // jobs.pairs_pruned, ...) accumulated over every run above.
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
  return 0;
}
