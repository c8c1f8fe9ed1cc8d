// Determinism-under-parallelism suite: the parallel pairwise fan-out and the
// multi-restart Tycos engine must produce bit-identical results to the
// sequential (num_threads = 1) path at every thread count — including under
// a per-unit evaluation budget — and a mid-run deadline must yield valid,
// never-torn partial results.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "common/run_context.h"
#include "core/window.h"
#include "datagen/relations.h"
#include "search/pairwise.h"
#include "search/tycos.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;

// Four channels: (0, 1) carry planted sine + linear relations, 2 and 3 are
// independent noise — six unordered pairs with very uneven search cost.
std::vector<TimeSeries> MakeChannels(uint64_t seed) {
  const auto ds = ComposeDataset({SegmentSpec{RelationType::kSine, 200, 8},
                                  SegmentSpec{RelationType::kLinear, 150, 4}},
                                 /*gap=*/150, seed);
  std::vector<TimeSeries> channels = {ds.pair.x(), ds.pair.y()};
  Rng rng(seed + 99);
  for (int c = 0; c < 2; ++c) {
    std::vector<double> v(static_cast<size_t>(ds.pair.size()));
    for (double& x : v) x = rng.Normal();
    channels.emplace_back(std::move(v), c == 0 ? "N1" : "N2");
  }
  return channels;
}

TycosParams Params() {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 24;
  p.s_max = 300;
  p.td_max = 16;
  return p;
}

void ExpectSameWindows(const WindowSet& a, const WindowSet& b,
                       const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const Window& x = a.windows()[i];
    const Window& y = b.windows()[i];
    EXPECT_EQ(x.start, y.start) << what << " window " << i;
    EXPECT_EQ(x.end, y.end) << what << " window " << i;
    EXPECT_EQ(x.delay, y.delay) << what << " window " << i;
    EXPECT_EQ(x.mi, y.mi) << what << " window " << i;  // bit-identical
  }
}

void ExpectSameResult(const PairwiseResult& a, const PairwiseResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.entries.size(), b.entries.size()) << what;
  EXPECT_EQ(a.pairs_searched, b.pairs_searched) << what;
  EXPECT_EQ(a.pairs_skipped, b.pairs_skipped) << what;
  EXPECT_EQ(a.partial, b.partial) << what;
  for (size_t i = 0; i < a.entries.size(); ++i) {
    const PairwiseEntry& x = a.entries[i];
    const PairwiseEntry& y = b.entries[i];
    EXPECT_EQ(x.a, y.a) << what << " entry " << i;
    EXPECT_EQ(x.b, y.b) << what << " entry " << i;
    EXPECT_EQ(x.best_score, y.best_score) << what << " entry " << i;
    EXPECT_EQ(x.partial, y.partial) << what << " entry " << i;
    ExpectSameWindows(x.windows, y.windows,
                      what + " entry " + std::to_string(i));
  }
}

void ExpectValidWindowSet(const WindowSet& set, int64_t n,
                          const TycosParams& p) {
  const auto& ws = set.windows();
  for (size_t i = 0; i < ws.size(); ++i) {
    EXPECT_TRUE(IsFeasible(ws[i], n, p.s_min, p.s_max, p.td_max))
        << ws[i].ToString();
    EXPECT_TRUE(std::isfinite(ws[i].mi));
    EXPECT_GE(ws[i].mi, p.sigma);
    for (size_t j = i + 1; j < ws.size(); ++j) {
      EXPECT_FALSE(Contains(ws[i], ws[j])) << "nested pair in result set";
      EXPECT_FALSE(Contains(ws[j], ws[i])) << "nested pair in result set";
    }
  }
}

TEST(ParallelPairwiseTest, BitIdenticalAcrossThreadCounts) {
  const auto channels = MakeChannels(11);
  TycosParams p = Params();
  p.num_threads = 1;
  const PairwiseResult reference =
      PairwiseSearch(channels, p, TycosVariant::kLMN, 7);
  EXPECT_FALSE(reference.partial);
  EXPECT_EQ(reference.pairs_searched, 6);
  for (int threads : {2, 4, 8}) {
    p.num_threads = threads;
    const PairwiseResult got =
        PairwiseSearch(channels, p, TycosVariant::kLMN, 7);
    ExpectSameResult(reference, got,
                     "threads=" + std::to_string(threads));
  }
}

TEST(ParallelPairwiseTest, BitIdenticalUnderPerPairBudget) {
  // The evaluation budget applies per pair and is polled against each
  // search's own deterministic counter, so even cut-short results must be
  // bit-identical at every thread count.
  const auto channels = MakeChannels(12);
  TycosParams p = Params();
  PairwiseResult reference;
  for (int threads : {1, 2, 4, 8}) {
    p.num_threads = threads;
    const RunContext ctx = RunContext::WithEvaluationBudget(60);
    Result<PairwiseResult> got =
        PairwiseSearch(channels, p, TycosVariant::kLMN, 7, ctx);
    ASSERT_TRUE(got.ok());
    // Budget exhaustion is local to a pair: the sweep itself still covers
    // every pair.
    EXPECT_EQ(got.value().pairs_searched, 6);
    EXPECT_EQ(got.value().pairs_skipped, 0);
    if (threads == 1) {
      reference = std::move(got.value());
    } else {
      ExpectSameResult(reference, got.value(),
                       "budget threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelPairwiseTest, DeadlinePartialResultsAreValidNeverTorn) {
  const auto channels = MakeChannels(13);
  const int64_t n = channels[0].size();
  TycosParams p = Params();
  for (int threads : {1, 2, 4, 8}) {
    p.num_threads = threads;
    RunContext ctx;
    ctx.SetDeadlineAfter(0.05);
    Result<PairwiseResult> got =
        PairwiseSearch(channels, p, TycosVariant::kLMN, 7, ctx);
    ASSERT_TRUE(got.ok());
    const PairwiseResult& r = got.value();
    // Accounting is exact whatever the deadline interrupted.
    EXPECT_EQ(r.pairs_searched, static_cast<int64_t>(r.entries.size()));
    EXPECT_EQ(r.pairs_searched + r.pairs_skipped, 6);
    if (r.pairs_skipped > 0) {
      EXPECT_TRUE(r.partial);
      EXPECT_EQ(r.stop_reason, StopReason::kDeadlineExceeded);
    }
    // Every listed entry is fully formed: valid windows, exact scores.
    for (const PairwiseEntry& e : r.entries) {
      EXPECT_LT(e.a, e.b);
      ExpectValidWindowSet(e.windows, n, p);
      double best = 0.0;
      for (const Window& w : e.windows.windows()) {
        best = std::max(best, w.mi);
      }
      EXPECT_EQ(e.best_score, best);
    }
    // Entries respect the documented ordering.
    for (size_t i = 1; i < r.entries.size(); ++i) {
      EXPECT_GE(r.entries[i - 1].best_score, r.entries[i].best_score);
    }
  }
}

TEST(ParallelPairwiseTest, ImmediateDeadlineSearchesNothing) {
  const auto channels = MakeChannels(14);
  TycosParams p = Params();
  p.num_threads = 4;
  RunContext ctx;
  ctx.SetDeadlineAfter(0.0);
  Result<PairwiseResult> got =
      PairwiseSearch(channels, p, TycosVariant::kLMN, 7, ctx);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().pairs_searched, 0);
  EXPECT_EQ(got.value().pairs_skipped, 6);
  EXPECT_TRUE(got.value().partial);
  EXPECT_EQ(got.value().stop_reason, StopReason::kDeadlineExceeded);
}

TEST(ParallelPairwiseTest, ConcurrentRestartsBitIdenticalAcrossThreads) {
  // num_restarts > 0 routes PairwiseSearch through the flattened
  // (pair × climb) scheduler: climbs of different pairs interleave on one
  // loop. Each climb derives its RNG stream and start cursor from
  // (pair seed, restart index) alone and the merge folds climbs in index
  // order, so the interleaving must not show up in the results.
  const auto channels = MakeChannels(15);
  TycosParams p = Params();
  p.num_restarts = 4;
  p.num_threads = 1;
  const PairwiseResult reference =
      PairwiseSearch(channels, p, TycosVariant::kLMN, 7);
  EXPECT_FALSE(reference.partial);
  EXPECT_EQ(reference.pairs_searched, 6);
  for (int threads : {2, 8}) {
    p.num_threads = threads;
    const PairwiseResult got =
        PairwiseSearch(channels, p, TycosVariant::kLMN, 7);
    ExpectSameResult(reference, got,
                     "restarts threads=" + std::to_string(threads));
  }
}

TEST(ParallelPairwiseTest, ConcurrentRestartsBitIdenticalUnderBudget) {
  // The evaluation budget is polled against each climb's own deterministic
  // counter, so budget-cut partial results from the flattened scheduler
  // are bit-identical at every thread count too.
  const auto channels = MakeChannels(16);
  TycosParams p = Params();
  p.num_restarts = 4;
  PairwiseResult reference;
  for (int threads : {1, 2, 8}) {
    p.num_threads = threads;
    const RunContext ctx = RunContext::WithEvaluationBudget(60);
    Result<PairwiseResult> got =
        PairwiseSearch(channels, p, TycosVariant::kLMN, 7, ctx);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().pairs_searched, 6);
    EXPECT_EQ(got.value().pairs_skipped, 0);
    if (threads == 1) {
      reference = std::move(got.value());
    } else {
      ExpectSameResult(reference, got.value(),
                       "restart budget threads=" + std::to_string(threads));
    }
  }
}

TEST(ParallelPairwiseTest, ConcurrentRestartsDeadlineCutsAreValid) {
  // A wall-clock deadline lands nondeterministically, but whatever survives
  // must keep every invariant: only fully merged pairs are listed, each
  // with valid windows and exact accounting.
  const auto channels = MakeChannels(17);
  const int64_t n = channels[0].size();
  TycosParams p = Params();
  p.num_restarts = 8;
  for (int threads : {1, 4}) {
    p.num_threads = threads;
    RunContext ctx;
    ctx.SetDeadlineAfter(0.03);
    Result<PairwiseResult> got =
        PairwiseSearch(channels, p, TycosVariant::kLMN, 7, ctx);
    ASSERT_TRUE(got.ok());
    const PairwiseResult& r = got.value();
    EXPECT_EQ(r.pairs_searched, static_cast<int64_t>(r.entries.size()));
    EXPECT_EQ(r.pairs_searched + r.pairs_skipped, 6);
    if (r.pairs_skipped > 0) {
      EXPECT_TRUE(r.partial);
      EXPECT_EQ(r.stop_reason, StopReason::kDeadlineExceeded);
    }
    for (const PairwiseEntry& e : r.entries) {
      EXPECT_LT(e.a, e.b);
      ExpectValidWindowSet(e.windows, n, p);
    }
  }
}

class MultiRestartTest : public ::testing::TestWithParam<TycosVariant> {};

TEST_P(MultiRestartTest, BitIdenticalAcrossThreadCounts) {
  const auto ds = ComposeDataset({SegmentSpec{RelationType::kSine, 200, 8},
                                  SegmentSpec{RelationType::kLinear, 150, 4}},
                                 /*gap=*/150, 21);
  TycosParams p = Params();
  p.num_restarts = 6;

  WindowSet reference;
  TycosStats reference_stats;
  for (int threads : {1, 2, 4, 8}) {
    p.num_threads = threads;
    Tycos search(ds.pair, p, GetParam(), /*seed=*/5);
    Result<SearchOutcome> outcome = search.Run(RunContext::None());
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome.value().partial);
    if (threads == 1) {
      reference = std::move(outcome.value().windows);
      reference_stats = search.stats();
      EXPECT_EQ(reference_stats.stop_reason, StopReason::kCompleted);
    } else {
      const std::string what = "threads=" + std::to_string(threads);
      ExpectSameWindows(reference, outcome.value().windows, what);
      // Per-climb counters are climb-deterministic, so their index-order
      // sums are thread-count invariant too.
      const TycosStats& s = search.stats();
      EXPECT_EQ(s.climbs, reference_stats.climbs) << what;
      EXPECT_EQ(s.accepted_moves, reference_stats.accepted_moves) << what;
      EXPECT_EQ(s.rejected_moves, reference_stats.rejected_moves) << what;
      EXPECT_EQ(s.noise_blocked, reference_stats.noise_blocked) << what;
      EXPECT_EQ(s.mi_evaluations, reference_stats.mi_evaluations) << what;
      EXPECT_EQ(s.cache_hits, reference_stats.cache_hits) << what;
      EXPECT_EQ(s.windows_found, reference_stats.windows_found) << what;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, MultiRestartTest,
                         ::testing::Values(TycosVariant::kL, TycosVariant::kLM,
                                           TycosVariant::kLMN),
                         [](const auto& info) {
                           return TycosVariantName(info.param);
                         });

TEST(MultiRestartDeterminismTest, BitIdenticalUnderPerClimbBudget) {
  const auto ds = ComposeDataset({SegmentSpec{RelationType::kSine, 200, 8}},
                                 /*gap=*/150, 22);
  TycosParams p = Params();
  p.num_restarts = 5;

  WindowSet reference;
  for (int threads : {1, 2, 4, 8}) {
    p.num_threads = threads;
    Tycos search(ds.pair, p, TycosVariant::kLMN, /*seed=*/5);
    const RunContext ctx = RunContext::WithEvaluationBudget(40);
    Result<SearchOutcome> outcome = search.Run(ctx);
    ASSERT_TRUE(outcome.ok());
    if (threads == 1) {
      reference = std::move(outcome.value().windows);
    } else {
      ExpectSameWindows(reference, outcome.value().windows,
                        "budget threads=" + std::to_string(threads));
    }
  }
}

TEST(MultiRestartDeterminismTest, DeadlinePartialResultsAreValid) {
  const auto ds = ComposeDataset({SegmentSpec{RelationType::kSine, 300, 8},
                                  SegmentSpec{RelationType::kLinear, 300, 4}},
                                 /*gap=*/200, 23);
  TycosParams p = Params();
  p.s_max = 400;
  p.num_restarts = 16;
  for (int threads : {1, 4}) {
    p.num_threads = threads;
    Tycos search(ds.pair, p, TycosVariant::kLMN, /*seed=*/5);
    RunContext ctx;
    ctx.SetDeadlineAfter(0.02);
    Result<SearchOutcome> outcome = search.Run(ctx);
    ASSERT_TRUE(outcome.ok());
    // Whatever the deadline cut off, the set keeps every invariant of a
    // completed run.
    ExpectValidWindowSet(outcome.value().windows, ds.pair.size(), p);
    if (outcome.value().partial) {
      EXPECT_NE(outcome.value().stop_reason, StopReason::kCompleted);
      EXPECT_EQ(search.stats().stop_reason, outcome.value().stop_reason);
    }
  }
}

TEST(MultiRestartDeterminismTest, FindsThePlantedRelation) {
  // Sanity beyond determinism: the restart grid actually discovers the
  // planted windows, like the sequential scan does.
  const auto ds = ComposeDataset({SegmentSpec{RelationType::kSine, 200, 8}},
                                 /*gap=*/150, 24);
  TycosParams p = Params();
  p.num_restarts = 8;
  p.num_threads = 4;
  Tycos search(ds.pair, p, TycosVariant::kLMN, /*seed=*/5);
  Result<SearchOutcome> outcome = search.Run(RunContext::None());
  ASSERT_TRUE(outcome.ok());
  ASSERT_FALSE(outcome.value().windows.empty());
  bool hits_planted = false;
  const Window truth = ds.planted[0].AsWindow();
  for (const Window& w : outcome.value().windows.windows()) {
    if (Overlaps(w, truth)) hits_planted = true;
  }
  EXPECT_TRUE(hits_planted);
}

}  // namespace
}  // namespace tycos
