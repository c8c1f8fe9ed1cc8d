#include "search/pairwise.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel_for.h"
#include "obs/metrics.h"

namespace tycos {

Status ValidatePairwiseChannels(const std::vector<TimeSeries>& channels) {
  if (channels.size() < 2) {
    return Status::InvalidArgument(
        "pairwise search needs at least 2 channels, got " +
        std::to_string(channels.size()));
  }
  for (size_t i = 0; i < channels.size(); ++i) {
    if (channels[i].size() != channels[0].size()) {
      return Status::InvalidArgument(
          "channel " + std::to_string(i) + " ('" + channels[i].name() +
          "') has length " + std::to_string(channels[i].size()) +
          " but channel 0 has " + std::to_string(channels[0].size()));
    }
    const Status st = channels[i].Validate();
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

std::vector<std::pair<int, int>> AllChannelPairs(int num_channels) {
  std::vector<std::pair<int, int>> pairs;
  for (int a = 0; a < num_channels; ++a) {
    for (int b = a + 1; b < num_channels; ++b) pairs.emplace_back(a, b);
  }
  return pairs;
}

uint64_t PairwiseSeed(uint64_t seed, int a, int b) {
  return seed + static_cast<uint64_t>(a) * 1000003u + static_cast<uint64_t>(b);
}

void SortPairwiseEntries(std::vector<PairwiseEntry>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const PairwiseEntry& x, const PairwiseEntry& y) {
              if (x.best_score != y.best_score) {
                return x.best_score > y.best_score;
              }
              if (x.window_count() != y.window_count()) {
                return x.window_count() > y.window_count();
              }
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
}

namespace {

// A pair's finished search as the entry PairwiseSearch reports.
PairOutcome ToPairOutcome(int a, int b, SearchOutcome outcome) {
  PairOutcome out;
  out.entry.a = a;
  out.entry.b = b;
  out.entry.windows = std::move(outcome.windows);
  out.entry.partial = outcome.partial;
  for (const Window& w : out.entry.windows.windows()) {
    out.entry.best_score = std::max(out.entry.best_score, w.mi);
  }
  out.stop_reason = outcome.stop_reason;
  return out;
}

}  // namespace

Result<PairOutcome> SearchPair(const std::vector<TimeSeries>& channels, int a,
                               int b, const TycosParams& params,
                               TycosVariant variant, uint64_t seed,
                               const RunContext& ctx) {
  const SeriesPair pair(channels[static_cast<size_t>(a)],
                        channels[static_cast<size_t>(b)]);
  Result<std::unique_ptr<Tycos>> search =
      Tycos::Create(pair, params, variant, PairwiseSeed(seed, a, b));
  if (!search.ok()) return search.status();
  Result<SearchOutcome> outcome = search.value()->Run(ctx);
  if (!outcome.ok()) return outcome.status();
  return ToPairOutcome(a, b, std::move(outcome.value()));
}

std::vector<size_t> PairwiseResult::Correlated() const {
  std::vector<size_t> out;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (!entries[i].windows.empty()) out.push_back(i);
  }
  return out;
}

PairwiseResult PairwiseSearch(const std::vector<TimeSeries>& channels,
                              const TycosParams& params, TycosVariant variant,
                              uint64_t seed) {
  TYCOS_CHECK_GE(channels.size(), 2u);
  for (const TimeSeries& c : channels) {
    TYCOS_CHECK_EQ(c.size(), channels[0].size());
  }
  // The no-limit context never stops or rejects, so the Result is always ok
  // once the CHECKs above have passed.
  Result<PairwiseResult> result =
      PairwiseSearch(channels, params, variant, seed, RunContext::None());
  TYCOS_CHECK(result.ok());
  return std::move(result.value());
}

Result<PairwiseResult> SweepPairs(
    const std::vector<TimeSeries>& channels,
    const std::vector<std::pair<int, int>>& pairs, const TycosParams& params,
    TycosVariant variant, uint64_t seed, const RunContext& ctx,
    const PairSweepHooks& hooks) {
  const int per_pair = std::max(1, params.num_restarts);
  const int64_t units = static_cast<int64_t>(pairs.size()) * per_pair;
  if (units == 0) return PairwiseResult{};  // e.g. all pairs prefiltered

  // Determinism: units claim in index order, a unit is a pure function of
  // (pair seed, unit) plus deterministic budget cuts, and a pair merges its
  // units in unit order, so every reported pair is bit-identical at any
  // thread count.
  // One slot per pair. `admission`, `engine`, `status` and the size of
  // `units` are written under call_once; `units[r]` only by unit r; the
  // merged `outcome` and `reported` only by the pair's last unit to end.
  // once_flag + the acq_rel countdown are the whole synchronization story:
  // no mutex, so nothing for the common/annotations.h capability analysis
  // to annotate.
  struct PairState {
    std::once_flag once;
    std::optional<PairAdmission> admission;  // nullopt: refused
    std::unique_ptr<Tycos> engine;
    Status status = Status::Ok();
    std::vector<Tycos::UnitResult> units;
    PairOutcome outcome;
    std::atomic<bool> dropped{false};
    std::atomic<int> remaining{0};
    bool reported = false;
  };
  std::vector<PairState> states(pairs.size());
  for (PairState& st : states) {
    st.remaining.store(per_pair, std::memory_order_relaxed);
  }

  static obs::Counter* pairs_searched =
      obs::GetCounter("pairwise.pairs_searched");
  // Without an admit hook every pair runs under the limits a unit of a
  // plain sweep has: the sweep's params, ctx's own budget, no slice.
  const PairAdmission plain{params, 0, ctx.evaluation_budget()};

  const ForStatus fs = ParallelFor(
      ResolveThreadCount(params.num_threads), units, ctx,
      [&](int64_t u) -> std::optional<StopReason> {
        const int64_t p = u / per_pair;
        const int r = static_cast<int>(u % per_pair);
        PairState& st = states[static_cast<size_t>(p)];
        const auto [a, b] = pairs[static_cast<size_t>(p)];
        std::call_once(st.once, [&] {
          st.admission = hooks.admit ? hooks.admit(p) : plain;
          if (!st.admission.has_value()) return;
          st.admission->params.num_threads = 1;
          const SeriesPair sp(channels[static_cast<size_t>(a)],
                              channels[static_cast<size_t>(b)]);
          Result<std::unique_ptr<Tycos>> engine =
              Tycos::Create(sp, st.admission->params, variant,
                            PairwiseSeed(seed, a, b));
          if (!engine.ok()) {
            st.status = engine.status();
            st.units.resize(1);  // unit 0 reports the failure
          } else {
            st.engine = std::move(engine.value());
            st.units.resize(static_cast<size_t>(st.engine->num_units()));
          }
        });

        // A pair the shed ladder degraded to fewer units leaves its other
        // unit slots idle.
        const bool active = st.admission.has_value() &&
                            r < static_cast<int>(st.units.size());
        std::optional<StopReason> halt;
        if (active) {
          // Under ctx, so a global stop reaches the unit; budgets do not
          // chain, which is why `plain` carries ctx's.
          RunContext unit_ctx;
          unit_ctx.SetParent(&ctx);
          if (st.admission->time_slice_s > 0) {
            unit_ctx.SetDeadlineAfter(st.admission->time_slice_s);
          }
          unit_ctx.SetEvaluationBudget(st.admission->evaluation_budget);
          const Result<StopReason> end = [&]() -> Result<StopReason> {
            if (!st.status.ok()) return st.status;  // the engine build
            Tycos::UnitResult& unit = st.units[static_cast<size_t>(r)];
            unit = st.engine->RunUnit(r, unit_ctx);
            return unit.stop.value_or(StopReason::kCompleted);
          }();
          const bool kept =
              hooks.unit_done ? hooks.unit_done(p, r, end) : end.ok();
          if (!kept) {
            st.dropped.store(true, std::memory_order_relaxed);
            // Without hooks a drop is an error: halt further claims; the
            // recorded status (not this reason) is what the caller sees.
            if (!hooks.unit_done) halt = StopReason::kCancelled;
          }
        }

        // The last unit of the pair to end (acq_rel, so every unit's writes
        // are visible) finishes it in-worker — merging overlaps remaining
        // search work instead of serializing after the join — and frees
        // the engine early.
        if (st.remaining.fetch_sub(1, std::memory_order_acq_rel) != 1 ||
            !st.admission.has_value()) {
          return halt;
        }
        const bool keep = !st.dropped.load(std::memory_order_relaxed);
        if (keep) {
          const int64_t all = static_cast<int64_t>(st.units.size());
          st.outcome = ToPairOutcome(
              a, b, st.engine->MergeUnits(st.units, all, std::nullopt));
          // A unit cut by a deadline or cancel makes the pair timing-dependent.
          for (const Tycos::UnitResult& unit : st.units) {
            if (unit.stop && IsTimingDependent(*unit.stop)) {
              st.outcome.stop_reason = *unit.stop;
              break;
            }
          }
          st.outcome.entry.shed_level = st.admission->shed_level;
        }
        st.engine.reset();  // frees the pair's series copy early
        if (hooks.finish) hooks.finish(p, keep ? &st.outcome : nullptr);
        if (keep) {
          st.reported = true;
          pairs_searched->Add(1);
        }
        return halt;
      });

  if (!hooks.unit_done) {
    // First error in pair order wins (deterministic at any thread count
    // once the error itself is deterministic). A pair's error is visible
    // iff its first unit was claimed.
    for (int64_t p = 0; p * per_pair < fs.claimed; ++p) {
      if (!states[static_cast<size_t>(p)].status.ok()) {
        return states[static_cast<size_t>(p)].status;
      }
    }
  }

  PairwiseResult result;
  for (PairState& st : states) {
    if (st.reported) result.entries.push_back(std::move(st.outcome.entry));
  }
  SortPairwiseEntries(&result.entries);
  result.pairs_searched = static_cast<int64_t>(result.entries.size());
  result.pairs_skipped =
      static_cast<int64_t>(pairs.size()) - result.pairs_searched;
  result.partial = fs.stop.has_value() || result.pairs_skipped > 0;
  result.stop_reason = fs.stop.value_or(StopReason::kCompleted);
  return result;
}

Result<PairwiseResult> PairwiseSearch(const std::vector<TimeSeries>& channels,
                                      const TycosParams& params,
                                      TycosVariant variant, uint64_t seed,
                                      const RunContext& ctx) {
  Status st = ValidatePairwiseChannels(channels);
  if (!st.ok()) return st;
  // Params are identical for every pair; validating once up front keeps the
  // fan-out free of per-pair construction failures.
  st = params.Validate(channels[0].size());
  if (!st.ok()) return st;
  return SweepPairs(channels,
                    AllChannelPairs(static_cast<int>(channels.size())),
                    params, variant, seed, ctx);
}

Result<PairwiseResult> SearchPairList(
    const std::vector<TimeSeries>& channels,
    const std::vector<std::pair<int, int>>& pairs, const TycosParams& params,
    TycosVariant variant, uint64_t seed, const RunContext& ctx) {
  Status st = ValidatePairwiseChannels(channels);
  if (!st.ok()) return st;
  st = params.Validate(channels[0].size());
  if (!st.ok()) return st;
  const int n = static_cast<int>(channels.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [a, b] = pairs[i];
    if (a < 0 || b <= a || b >= n) {
      return Status::InvalidArgument(
          "pair list entry " + std::to_string(i) + " = (" +
          std::to_string(a) + ", " + std::to_string(b) +
          ") is not a valid (a < b) pair for " + std::to_string(n) +
          " channels");
    }
    if (i > 0 && pairs[i] <= pairs[i - 1]) {
      return Status::InvalidArgument(
          "pair list must be strictly (a, b)-sorted without duplicates; "
          "entry " + std::to_string(i) + " violates the order");
    }
  }
  return SweepPairs(channels, pairs, params, variant, seed, ctx);
}

}  // namespace tycos
