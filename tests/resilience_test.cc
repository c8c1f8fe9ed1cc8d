// End-to-end resilience suite: deadlines, cancellation, evaluation budgets,
// fault injection, and hostile input across every search driver. The core
// contract under test: a run that is stopped early or fed corrupted scores
// still returns a *valid* result — a non-nested, feasibility- and
// σ-respecting window set — and reports how it stopped, instead of
// crashing, hanging, or emitting poisoned windows.

#include <chrono>
#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/run_context.h"
#include "core/data_policy.h"
#include "core/window_similarity.h"
#include "datagen/relations.h"
#include "search/brute_force_search.h"
#include "search/fault_injector.h"
#include "search/pairwise.h"
#include "search/streaming.h"
#include "search/tycos.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;
using datagen::SyntheticDataset;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TycosParams TestParams() {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 24;
  p.s_max = 320;
  p.td_max = 32;
  p.delta = 4;
  p.k = 4;
  p.max_idle = 8;
  return p;
}

// A dataset large enough that a full search takes far longer than the short
// deadlines used below, so deadline tests cannot complete by accident.
const SyntheticDataset& BigDataset() {
  static const SyntheticDataset* ds = new SyntheticDataset(ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 250, 0},
       SegmentSpec{RelationType::kSine, 250, 8},
       SegmentSpec{RelationType::kQuadratic, 250, 16},
       SegmentSpec{RelationType::kLinear, 250, 0},
       SegmentSpec{RelationType::kCircle, 250, 4},
       SegmentSpec{RelationType::kSine, 250, 24},
       SegmentSpec{RelationType::kQuadratic, 250, 0},
       SegmentSpec{RelationType::kLinear, 250, 12}},
      /*gap=*/200, /*seed=*/77));
  return *ds;
}

const SyntheticDataset& SmallDataset() {
  static const SyntheticDataset* ds = new SyntheticDataset(ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 150, 0}}, /*gap=*/200, /*seed=*/78));
  return *ds;
}

// The validity contract every result — complete or partial — must satisfy.
void ExpectValidWindowSet(const WindowSet& set, int64_t n,
                          const TycosParams& p) {
  const auto& ws = set.windows();
  for (const Window& w : ws) {
    EXPECT_TRUE(IsFeasible(w, n, p.s_min, p.s_max, p.td_max)) << w.ToString();
    EXPECT_TRUE(std::isfinite(w.mi)) << w.ToString();
    if (p.top_k == 0) {
      EXPECT_GE(w.mi, p.sigma) << w.ToString();
    }
  }
  for (size_t i = 0; i < ws.size(); ++i) {
    for (size_t j = 0; j < ws.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(Contains(ws[i], ws[j]));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// RunContext semantics.

TEST(RunContextTest, NoLimitsNeverStops) {
  const RunContext& ctx = RunContext::None();
  EXPECT_FALSE(ctx.HasLimits());
  EXPECT_FALSE(ctx.ShouldStop(std::numeric_limits<int64_t>::max()));
}

TEST(RunContextTest, CancellationWinsOverOtherReasons) {
  RunContext ctx = RunContext::WithEvaluationBudget(1);
  ctx.RequestCancel();
  auto stop = ctx.ShouldStop(/*evaluations_used=*/100);
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(*stop, StopReason::kCancelled);
}

TEST(RunContextTest, BudgetTriggersAtTheBoundary) {
  RunContext ctx = RunContext::WithEvaluationBudget(10);
  EXPECT_FALSE(ctx.ShouldStop(9));
  auto stop = ctx.ShouldStop(10);
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(*stop, StopReason::kBudgetExhausted);
}

TEST(RunContextTest, ExpiredDeadlineStops) {
  RunContext ctx = RunContext::WithDeadline(-1.0);  // already in the past
  auto stop = ctx.ShouldStop();
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(*stop, StopReason::kDeadlineExceeded);
}

TEST(RunContextTest, HugeAndInfiniteDeadlinesNeverFire) {
  // Past the clock's range (~9.2e9 s) a plain cast would overflow; the
  // deadline must saturate to "never" instead.
  for (const double seconds :
       {1e12, std::numeric_limits<double>::infinity()}) {
    RunContext ctx;
    ctx.SetDeadlineAfter(seconds);
    EXPECT_FALSE(ctx.ShouldStop(0).has_value()) << seconds;
    EXPECT_EQ(DeadlineAfter(std::chrono::steady_clock::now(), seconds),
              std::chrono::steady_clock::time_point::max())
        << seconds;
  }
}

TEST(RunContextTest, NanDeadlineHasExpired) {
  RunContext ctx;
  ctx.SetDeadlineAfter(std::numeric_limits<double>::quiet_NaN());
  const std::optional<StopReason> stop = ctx.ShouldStop(0);
  ASSERT_TRUE(stop.has_value());
  EXPECT_EQ(*stop, StopReason::kDeadlineExceeded);
}

TEST(RunContextTest, StopReasonNames) {
  EXPECT_STREQ(StopReasonName(StopReason::kCompleted), "completed");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(StopReasonName(StopReason::kCancelled), "cancelled");
  EXPECT_STREQ(StopReasonName(StopReason::kBudgetExhausted),
               "budget_exhausted");
}

// ---------------------------------------------------------------------------
// Deadlines, budgets, and cancellation across all four search variants.

class ResilienceVariantTest : public ::testing::TestWithParam<TycosVariant> {};

TEST_P(ResilienceVariantTest, ShortDeadlineYieldsValidPartialResult) {
  const SyntheticDataset& ds = BigDataset();
  const TycosParams p = TestParams();
  Result<std::unique_ptr<Tycos>> search = Tycos::Create(ds.pair, p, GetParam());
  ASSERT_TRUE(search.ok());
  const RunContext ctx = RunContext::WithDeadline(0.05);
  Result<SearchOutcome> outcome = search.value()->Run(ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->partial) << TycosVariantName(GetParam());
  EXPECT_EQ(outcome->stop_reason, StopReason::kDeadlineExceeded);
  EXPECT_EQ(search.value()->stats().stop_reason,
            StopReason::kDeadlineExceeded);
  ExpectValidWindowSet(outcome->windows, ds.pair.size(), p);
}

TEST_P(ResilienceVariantTest, EvaluationBudgetStopsTheRun) {
  const SyntheticDataset& ds = BigDataset();
  const TycosParams p = TestParams();
  Result<std::unique_ptr<Tycos>> search = Tycos::Create(ds.pair, p, GetParam());
  ASSERT_TRUE(search.ok());
  const RunContext ctx = RunContext::WithEvaluationBudget(300);
  Result<SearchOutcome> outcome = search.value()->Run(ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->partial);
  EXPECT_EQ(outcome->stop_reason, StopReason::kBudgetExhausted);
  EXPECT_GE(search.value()->stats().mi_evaluations, 300);
  ExpectValidWindowSet(outcome->windows, ds.pair.size(), p);
}

TEST_P(ResilienceVariantTest, PreCancelledContextReturnsImmediately) {
  const SyntheticDataset& ds = SmallDataset();
  const TycosParams p = TestParams();
  Result<std::unique_ptr<Tycos>> search = Tycos::Create(ds.pair, p, GetParam());
  ASSERT_TRUE(search.ok());
  RunContext ctx;
  ctx.RequestCancel();
  Result<SearchOutcome> outcome = search.value()->Run(ctx);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->partial);
  EXPECT_EQ(outcome->stop_reason, StopReason::kCancelled);
  EXPECT_TRUE(outcome->windows.empty());
  EXPECT_EQ(search.value()->stats().mi_evaluations, 0);
}

TEST_P(ResilienceVariantTest, UnlimitedContextMatchesLegacyRun) {
  const SyntheticDataset& ds = SmallDataset();
  const TycosParams p = TestParams();
  Result<std::unique_ptr<Tycos>> a = Tycos::Create(ds.pair, p, GetParam());
  ASSERT_TRUE(a.ok());
  Result<SearchOutcome> outcome = a.value()->Run(RunContext::None());
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->partial);
  EXPECT_EQ(outcome->stop_reason, StopReason::kCompleted);

  Tycos b(ds.pair, p, GetParam());
  const auto legacy = b.Run().Sorted();
  const auto limited = outcome->windows.Sorted();
  ASSERT_EQ(legacy.size(), limited.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_TRUE(legacy[i].SameSpan(limited[i]));
    EXPECT_DOUBLE_EQ(legacy[i].mi, limited[i].mi);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, ResilienceVariantTest,
                         ::testing::Values(TycosVariant::kL, TycosVariant::kLN,
                                           TycosVariant::kLM,
                                           TycosVariant::kLMN),
                         [](const auto& info) {
                           return std::string(TycosVariantName(info.param))
                                      .substr(6);  // strip "TYCOS_"
                         });

// Incremental and non-incremental searches share the evaluation order and
// (exact) estimator, so the *same* budget must cut them at the same place:
// identical partial results, not merely similar ones.
TEST(ResilienceTest, IncrementalAndBatchDegradeIdentically) {
  const SyntheticDataset& ds = BigDataset();
  const TycosParams p = TestParams();
  WindowSet results[2];
  const TycosVariant variants[2] = {TycosVariant::kL, TycosVariant::kLM};
  for (int i = 0; i < 2; ++i) {
    Result<std::unique_ptr<Tycos>> search =
        Tycos::Create(ds.pair, p, variants[i], /*seed=*/5);
    ASSERT_TRUE(search.ok());
    const RunContext ctx = RunContext::WithEvaluationBudget(500);
    Result<SearchOutcome> outcome = search.value()->Run(ctx);
    ASSERT_TRUE(outcome.ok());
    EXPECT_TRUE(outcome->partial);
    results[i] = std::move(outcome->windows);
  }
  const auto rl = results[0].Sorted();
  const auto rlm = results[1].Sorted();
  ASSERT_EQ(rl.size(), rlm.size());
  for (size_t i = 0; i < rl.size(); ++i) {
    EXPECT_TRUE(rl[i].SameSpan(rlm[i])) << rl[i].ToString() << " vs "
                                        << rlm[i].ToString();
    EXPECT_NEAR(rl[i].mi, rlm[i].mi, 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Fault injection.

TEST(FaultInjectionTest, CancelMidClimbPreservesBestSoFar) {
  const SyntheticDataset& ds = BigDataset();
  const TycosParams p = TestParams();
  Result<std::unique_ptr<Tycos>> search =
      Tycos::Create(ds.pair, p, TycosVariant::kLMN);
  ASSERT_TRUE(search.ok());
  RunContext ctx;
  FaultInjector* injector = nullptr;
  search.value()->WrapEvaluatorForTest(
      [&](std::unique_ptr<WindowEvaluator> inner)
          -> std::unique_ptr<WindowEvaluator> {
        FaultPlan plan;
        plan.cancel_context = &ctx;
        plan.cancel_at = 120;  // deep inside the first climbs
        auto fi = std::make_unique<FaultInjector>(std::move(inner), plan);
        injector = fi.get();
        return fi;
      });
  Result<SearchOutcome> outcome = search.value()->Run(ctx);
  ASSERT_TRUE(outcome.ok());
  ASSERT_NE(injector, nullptr);
  EXPECT_EQ(injector->faults_injected(), 1);
  EXPECT_GE(injector->scores_served(), 120);
  EXPECT_TRUE(outcome->partial);
  EXPECT_EQ(outcome->stop_reason, StopReason::kCancelled);
  ExpectValidWindowSet(outcome->windows, ds.pair.size(), p);
}

TEST(FaultInjectionTest, CorruptedScoresNeverReachTheResultSet) {
  const SyntheticDataset& ds = SmallDataset();
  const TycosParams p = TestParams();
  for (double poison : {kNaN, std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()}) {
    Result<std::unique_ptr<Tycos>> search =
        Tycos::Create(ds.pair, p, TycosVariant::kL);
    ASSERT_TRUE(search.ok());
    search.value()->WrapEvaluatorForTest(
        [&](std::unique_ptr<WindowEvaluator> inner)
            -> std::unique_ptr<WindowEvaluator> {
          FaultPlan plan;
          plan.corrupt_every = 7;
          plan.corrupt_value = poison;
          return std::make_unique<FaultInjector>(std::move(inner), plan);
        });
    Result<SearchOutcome> outcome = search.value()->Run(RunContext::None());
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome->partial);
    EXPECT_GT(search.value()->stats().non_finite_scores, 0);
    ExpectValidWindowSet(outcome->windows, ds.pair.size(), p);
  }
}

TEST(FaultInjectionTest, DegeneratingEstimatorEndsSearchCleanly) {
  // A flatlining estimator (every score 0 from some point on) must starve
  // the search, not wedge it: the run completes and later windows are gone.
  const SyntheticDataset& ds = SmallDataset();
  const TycosParams p = TestParams();
  Result<std::unique_ptr<Tycos>> search =
      Tycos::Create(ds.pair, p, TycosVariant::kL);
  ASSERT_TRUE(search.ok());
  search.value()->WrapEvaluatorForTest(
      [&](std::unique_ptr<WindowEvaluator> inner)
          -> std::unique_ptr<WindowEvaluator> {
        FaultPlan plan;
        plan.degenerate_from = 1;  // every score is 0
        return std::make_unique<FaultInjector>(std::move(inner), plan);
      });
  Result<SearchOutcome> outcome = search.value()->Run(RunContext::None());
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->partial);
  EXPECT_TRUE(outcome->windows.empty());
}

// ---------------------------------------------------------------------------
// Graceful construction.

TEST(GracefulCreateTest, TycosRejectsBadParams) {
  const SyntheticDataset& ds = SmallDataset();
  TycosParams p = TestParams();
  p.sigma = 0.0;
  Result<std::unique_ptr<Tycos>> r =
      Tycos::Create(ds.pair, p, TycosVariant::kL);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(GracefulCreateTest, TycosRejectsNonFiniteSeries) {
  std::vector<double> xs(600, 0.0), ys(600, 0.0);
  for (size_t i = 0; i < xs.size(); ++i) {
    xs[i] = std::sin(0.1 * static_cast<double>(i));
    ys[i] = std::cos(0.1 * static_cast<double>(i));
  }
  xs[311] = kNaN;
  const SeriesPair pair{TimeSeries(xs, "x"), TimeSeries(ys, "y")};
  Result<std::unique_ptr<Tycos>> r =
      Tycos::Create(pair, TestParams(), TycosVariant::kLMN);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("311"), std::string::npos)
      << r.status().message();
}

TEST(GracefulCreateTest, BruteForceValidatesInput) {
  const SyntheticDataset& ds = SmallDataset();
  TycosParams bad = TestParams();
  bad.s_min = 2;  // < k + 2
  EXPECT_FALSE(BruteForceSearch::Create(ds.pair, bad).ok());
  EXPECT_TRUE(BruteForceSearch::Create(ds.pair, TestParams()).ok());
}

TEST(GracefulCreateTest, StreamingValidatesTriggerAndShape) {
  TycosParams p = TestParams();
  EXPECT_TRUE(StreamingTycos::Create(p, TycosVariant::kLMN).ok());
  // Trigger below s_min can never accumulate a searchable chunk.
  Result<std::unique_ptr<StreamingTycos>> r = StreamingTycos::Create(
      p, TycosVariant::kLMN, /*seed=*/1, /*search_trigger=*/p.s_min - 1);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  p.k = 0;
  EXPECT_FALSE(StreamingTycos::Create(p, TycosVariant::kLMN).ok());
}

TEST(GracefulCreateTest, SeriesPairCreateChecksLengthAndFiniteness) {
  EXPECT_FALSE(
      SeriesPair::Create(TimeSeries({1.0, 2.0}), TimeSeries({1.0})).ok());
  EXPECT_FALSE(
      SeriesPair::Create(TimeSeries({1.0, kNaN}), TimeSeries({1.0, 2.0}))
          .ok());
  EXPECT_TRUE(
      SeriesPair::Create(TimeSeries({1.0, 2.0}), TimeSeries({3.0, 4.0})).ok());
}

// ---------------------------------------------------------------------------
// Brute force under limits.

TEST(BruteForceResilienceTest, BudgetCutsEnumerationShort) {
  const SyntheticDataset& ds = SmallDataset();
  TycosParams p = TestParams();
  p.s_max = 64;
  p.td_max = 8;
  Result<std::unique_ptr<BruteForceSearch>> search =
      BruteForceSearch::Create(ds.pair, p);
  ASSERT_TRUE(search.ok());
  const int64_t feasible = search.value()->CountFeasibleWindows();
  const RunContext ctx = RunContext::WithEvaluationBudget(1000);
  Result<BruteForceResult> result = search.value()->Run(ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->partial);
  EXPECT_EQ(result->stop_reason, StopReason::kBudgetExhausted);
  EXPECT_LT(result->windows_evaluated, feasible);
  for (const Window& w : result->raw) {
    EXPECT_GE(w.mi, p.sigma);
    EXPECT_TRUE(std::isfinite(w.mi));
  }
}

TEST(BruteForceResilienceTest, UnlimitedRunIsComplete) {
  const SyntheticDataset& ds = SmallDataset();
  TycosParams p = TestParams();
  p.s_max = 48;
  p.td_max = 4;
  Result<std::unique_ptr<BruteForceSearch>> search =
      BruteForceSearch::Create(ds.pair, p);
  ASSERT_TRUE(search.ok());
  Result<BruteForceResult> result = search.value()->Run(RunContext::None());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->partial);
  EXPECT_EQ(result->stop_reason, StopReason::kCompleted);
  EXPECT_EQ(result->windows_evaluated, search.value()->CountFeasibleWindows());
}

// ---------------------------------------------------------------------------
// Pairwise under limits and hostile input.

std::vector<TimeSeries> TestChannels() {
  const SyntheticDataset a = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 150, 0}}, /*gap=*/150, /*seed=*/21);
  const SyntheticDataset b = ComposeDataset(
      {SegmentSpec{RelationType::kSine, 150, 0}}, /*gap=*/150, /*seed=*/22);
  const int64_t n = std::min(a.pair.size(), b.pair.size());
  auto head = [n](const TimeSeries& s, const char* name) {
    std::vector<double> v(s.values().begin(),
                          s.values().begin() + static_cast<size_t>(n));
    return TimeSeries(std::move(v), name);
  };
  return {head(a.pair.x(), "a"), head(a.pair.y(), "b"),
          head(b.pair.x(), "c"), head(b.pair.y(), "d")};
}

TEST(PairwiseResilienceTest, RejectsHostileChannels) {
  std::vector<TimeSeries> channels = TestChannels();
  EXPECT_FALSE(PairwiseSearch({channels[0]}, TestParams(), TycosVariant::kL,
                              42, RunContext::None())
                   .ok());

  std::vector<double> short_series(channels[0].values().begin(),
                                   channels[0].values().begin() + 100);
  std::vector<TimeSeries> mismatched = {channels[0],
                                        TimeSeries(short_series, "short")};
  Result<PairwiseResult> r = PairwiseSearch(
      mismatched, TestParams(), TycosVariant::kL, 42, RunContext::None());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  std::vector<double> poisoned = channels[1].values();
  poisoned[17] = kNaN;
  std::vector<TimeSeries> with_nan = {channels[0],
                                      TimeSeries(poisoned, "poisoned")};
  EXPECT_FALSE(PairwiseSearch(with_nan, TestParams(), TycosVariant::kL, 42,
                              RunContext::None())
                   .ok());
}

// Four channels cut from BigDataset(): the halves of its x and of its y. A
// single pair of them searches far longer than the sweep deadline below, so
// the sweep cannot start all six pairs before it, however fast the host.
std::vector<TimeSeries> BigChannels() {
  const SeriesPair& pair = BigDataset().pair;
  const auto half = static_cast<std::ptrdiff_t>(pair.size() / 2);
  auto cut = [half](const TimeSeries& s, std::ptrdiff_t from,
                    const char* name) {
    std::vector<double> v(s.values().begin() + from,
                          s.values().begin() + from + half);
    return TimeSeries(std::move(v), name);
  };
  return {cut(pair.x(), 0, "x0"), cut(pair.y(), 0, "y0"),
          cut(pair.x(), half, "x1"), cut(pair.y(), half, "y1")};
}

TEST(PairwiseResilienceTest, DeadlineSkipsRemainingPairs) {
  std::vector<TimeSeries> channels = BigChannels();
  const RunContext ctx = RunContext::WithDeadline(0.02);
  Result<PairwiseResult> r = PairwiseSearch(channels, TestParams(),
                                            TycosVariant::kLMN, 42, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->partial);
  EXPECT_EQ(r->stop_reason, StopReason::kDeadlineExceeded);
  EXPECT_EQ(r->pairs_searched + r->pairs_skipped, 6);  // C(4, 2)
  EXPECT_LT(r->pairs_searched, 6);
}

TEST(PairwiseResilienceTest, UnlimitedRunCoversEveryPair) {
  std::vector<TimeSeries> channels = TestChannels();
  Result<PairwiseResult> r = PairwiseSearch(
      channels, TestParams(), TycosVariant::kLMN, 42, RunContext::None());
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->partial);
  EXPECT_EQ(r->pairs_searched, 6);
  EXPECT_EQ(r->pairs_skipped, 0);
  EXPECT_EQ(r->stop_reason, StopReason::kCompleted);
}

// ---------------------------------------------------------------------------
// Streaming under limits and hostile input.

std::vector<double> Wave(int64_t n, double phase, uint64_t salt) {
  std::vector<double> v(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    // A deterministic pseudo-noise term keeps samples tie-free.
    const double jitter = static_cast<double>(
        (static_cast<uint64_t>(i + 1) * 2654435761ull + salt) % 1000) * 1e-6;
    v[static_cast<size_t>(i)] =
        std::sin(0.07 * static_cast<double>(i) + phase) + jitter;
  }
  return v;
}

TEST(StreamingResilienceTest, MismatchedAppendIsRejectedAndNotBuffered) {
  Result<std::unique_ptr<StreamingTycos>> stream =
      StreamingTycos::Create(TestParams(), TycosVariant::kLMN);
  ASSERT_TRUE(stream.ok());
  const Status st = stream.value()->Append(Wave(64, 0.0, 1), Wave(63, 0.0, 2));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stream.value()->samples_seen(), 0);
  EXPECT_EQ(stream.value()->retained_samples(), 0);
}

TEST(StreamingResilienceTest, RejectPolicyRefusesNonFiniteChunks) {
  Result<std::unique_ptr<StreamingTycos>> stream = StreamingTycos::Create(
      TestParams(), TycosVariant::kLMN, 42, 0, DataPolicy::kReject);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value()->Append(Wave(50, 0.0, 1), Wave(50, 0.5, 2)).ok());
  std::vector<double> xs = Wave(50, 0.0, 3);
  xs[10] = kNaN;
  const Status st = stream.value()->Append(xs, Wave(50, 0.5, 4));
  ASSERT_FALSE(st.ok());
  // The error names the *global* stream position of the bad sample.
  EXPECT_NE(st.message().find("60"), std::string::npos) << st.message();
  EXPECT_EQ(stream.value()->samples_seen(), 50);
}

TEST(StreamingResilienceTest, InterpolatePolicyRepairsGaps) {
  Result<std::unique_ptr<StreamingTycos>> stream = StreamingTycos::Create(
      TestParams(), TycosVariant::kLMN, 42, 0, DataPolicy::kInterpolate);
  ASSERT_TRUE(stream.ok());
  ASSERT_TRUE(stream.value()->Append(Wave(50, 0.0, 1), Wave(50, 0.5, 2)).ok());
  std::vector<double> xs = Wave(50, 0.0, 3);
  xs[0] = kNaN;   // interpolates across the chunk boundary
  xs[20] = kNaN;
  xs[49] = kNaN;  // trailing gap: clamps to the last finite value
  ASSERT_TRUE(stream.value()->Append(xs, Wave(50, 0.5, 4)).ok());
  EXPECT_EQ(stream.value()->samples_seen(), 100);
  EXPECT_EQ(stream.value()->ingest_stats().interpolated, 3);
}

TEST(StreamingResilienceTest, DeadlinedPassReportsPartialAndMovesOn) {
  TycosParams p = TestParams();
  p.s_max = 128;
  p.td_max = 16;
  Result<std::unique_ptr<StreamingTycos>> stream =
      StreamingTycos::Create(p, TycosVariant::kLMN);
  ASSERT_TRUE(stream.ok());
  const RunContext ctx = RunContext::WithDeadline(1e-6);  // already hopeless
  stream.value()->set_run_context(&ctx);
  // Two correlated channels large enough to trigger a pass.
  const std::vector<double> xs = Wave(600, 0.0, 1);
  ASSERT_TRUE(stream.value()->Append(xs, xs).ok());
  ASSERT_TRUE(stream.value()->Flush().ok());
  ASSERT_GT(stream.value()->search_passes(), 0);
  EXPECT_TRUE(stream.value()->last_pass_partial());
  EXPECT_EQ(stream.value()->last_stop_reason(),
            StopReason::kDeadlineExceeded);
  // The stream still advances: ingest is never blocked by a slow search.
  EXPECT_EQ(stream.value()->samples_seen(), 600);

  // Clearing the context restores full passes on fresh data.
  stream.value()->set_run_context(nullptr);
  ASSERT_TRUE(stream.value()->Append(xs, xs).ok());
  ASSERT_TRUE(stream.value()->Flush().ok());
  EXPECT_FALSE(stream.value()->last_pass_partial());
}

}  // namespace
}  // namespace tycos
