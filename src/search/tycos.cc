#include "search/tycos.h"

#include <algorithm>
#include <cmath>

#include "common/parallel_for.h"
#include "obs/metrics.h"
#include "search/top_k.h"

namespace tycos {

const char* TycosVariantName(TycosVariant v) {
  switch (v) {
    case TycosVariant::kL:
      return "TYCOS_L";
    case TycosVariant::kLN:
      return "TYCOS_LN";
    case TycosVariant::kLM:
      return "TYCOS_LM";
    case TycosVariant::kLMN:
      return "TYCOS_LMN";
  }
  return "TYCOS_?";
}

namespace {

// The registry counters FlushClimbCounters publishes to. Resolved once;
// the registry owns the counters for the process lifetime.
struct ClimbCounterBindings {
  obs::Counter* climbs = obs::GetCounter("tycos.climbs");
  obs::Counter* accepted = obs::GetCounter("tycos.accepted_moves");
  obs::Counter* rejected = obs::GetCounter("tycos.rejected_moves");
  obs::Counter* noise_blocked = obs::GetCounter("tycos.noise_blocked");
  obs::Counter* non_finite = obs::GetCounter("tycos.non_finite_scores");
};

const ClimbCounterBindings& Bindings() {
  static const ClimbCounterBindings b;
  return b;
}

// The result set S (Algorithm 1) that climbed windows are offered to:
// σ-gated non-nested inserts, or with params.top_k > 0 the top-K list and
// its dynamic σ (Section 6.3.2). The final set is a pure function of the
// offer sequence, which is what lets MergeUnits replay a unit's climbs.
class ResultCollector {
 public:
  explicit ResultCollector(const TycosParams& params)
      : sigma_(params.sigma),
        dynamic_sigma_(params.top_k > 0),
        top_k_(params.top_k > 0 ? params.top_k : 1) {}

  // Returns whether w is in the result afterwards.
  bool Offer(const Window& w) {
    if (dynamic_sigma_) return top_k_.Offer(w);
    return w.mi >= sigma_ && windows_.Insert(w);
  }

  WindowSet Take() {
    if (dynamic_sigma_) {
      for (const Window& w : top_k_.windows()) windows_.Insert(w);
    }
    return std::move(windows_);
  }

 private:
  double sigma_;
  bool dynamic_sigma_;
  TopKFilter top_k_;
  WindowSet windows_;
};

void AddWork(const TycosStats& unit, TycosStats* total) {
  total->climbs += unit.climbs;
  total->accepted_moves += unit.accepted_moves;
  total->rejected_moves += unit.rejected_moves;
  total->noise_blocked += unit.noise_blocked;
  total->non_finite_scores += unit.non_finite_scores;
  total->mi_evaluations += unit.mi_evaluations;
  total->cache_hits += unit.cache_hits;
  total->degenerate_windows += unit.degenerate_windows;
}

}  // namespace

void Tycos::FlushClimbCounters(const ClimbCounters& c) {
  const ClimbCounterBindings& b = Bindings();
  b.climbs->Add(1);
  if (c.accepted_moves > 0) b.accepted->Add(c.accepted_moves);
  if (c.rejected_moves > 0) b.rejected->Add(c.rejected_moves);
  if (c.noise_blocked > 0) b.noise_blocked->Add(c.noise_blocked);
  if (c.non_finite_scores > 0) b.non_finite->Add(c.non_finite_scores);
  static obs::Histogram* accept_ratio = obs::GetHistogram(
      "tycos.climb_accept_ratio",
      {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
  const int64_t moves = c.accepted_moves + c.rejected_moves;
  if (moves > 0) {
    accept_ratio->Observe(static_cast<double>(c.accepted_moves) /
                          static_cast<double>(moves));
  }
}

Tycos::Tycos(Validated, const SeriesPair& pair, const TycosParams& params,
             TycosVariant variant, uint64_t seed)
    : pair_(PrepareForSearch(pair, params)),
      params_(params),
      variant_(variant),
      seed_(seed) {}

Tycos::Tycos(const SeriesPair& pair, const TycosParams& params,
             TycosVariant variant, uint64_t seed)
    : Tycos(
          [&] {
            const Status st = ValidateForSearch(pair, params);
            if (!st.ok()) {
              std::fprintf(stderr, "Tycos: invalid input: %s\n",
                           st.ToString().c_str());
            }
            TYCOS_CHECK(st.ok());
            return Validated{};
          }(),
          pair, params, variant, seed) {}

Result<std::unique_ptr<Tycos>> Tycos::Create(const SeriesPair& pair,
                                             const TycosParams& params,
                                             TycosVariant variant,
                                             uint64_t seed) {
  const Status st = ValidateForSearch(pair, params);
  if (!st.ok()) return st;
  return std::unique_ptr<Tycos>(
      new Tycos(Validated{}, pair, params, variant, seed));
}

void Tycos::WrapEvaluatorForTest(const EvaluatorWrapper& wrap) {
  test_wrapper_ = wrap;
  test_stacks_.resize(static_cast<size_t>(num_units()));
}

uint64_t Tycos::UnitSeed(int u) const {
  return params_.num_restarts > 0
             ? DeriveStreamSeed(seed_, static_cast<uint64_t>(u))
             : seed_;
}

double Tycos::SafeScore(const ClimbContext& cc, const Window& w) const {
  const double score = cc.evaluator->Score(w);
  if (!std::isfinite(score)) {
    ++cc.counters->non_finite_scores;
    return 0.0;
  }
  return score;
}

std::vector<Window> Tycos::GenerateNeighbors(const Window& w, int level,
                                             const DirectionMask& mask) const {
  const int64_t step = params_.delta * level;
  const int64_t offsets[3] = {-step, 0, step};
  std::vector<Window> out;
  out.reserve(26);
  for (int64_t ds : offsets) {
    for (int64_t de : offsets) {
      for (int64_t dt : offsets) {
        if (ds == 0 && de == 0 && dt == 0) continue;
        // Noise masks: a blocked end direction forbids growing t_e forward;
        // a blocked start direction forbids growing t_s backward.
        if (mask.extend_end_blocked && de > 0) continue;
        if (mask.extend_start_blocked && ds < 0) continue;
        Window nb(w.start + ds, w.end + de, w.delay + dt);
        if (!IsFeasible(nb, pair_.size(), params_.s_min, params_.s_max,
                        params_.td_max)) {
          continue;
        }
        out.push_back(nb);
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Window& a, const Window& b) {
    if (a.delay != b.delay) return a.delay < b.delay;
    if (a.start != b.start) return a.start < b.start;
    return a.end < b.end;
  });
  return out;
}

Window Tycos::Climb(const ClimbContext& cc, const Window& w0,
                    const RunContext& ctx,
                    std::optional<StopReason>* stop) const {
  Window w = w0;
  Window best_seen = w0;
  LahcHistory history(params_.history_length, w0.mi);
  DirectionMask mask;
  int idle = 0;
  int level = 1;

  while (idle < params_.max_idle) {
    if ((*stop = ctx.ShouldStop(cc.evaluator->evaluations()))) {
      return best_seen;
    }
    if (use_noise()) {
      cc.counters->noise_blocked += DetectSubsequentNoise(
          pair_, *cc.evaluator, params_, w, w.mi, &mask);
    }
    std::vector<Window> neighbors = GenerateNeighbors(w, level, mask);
    if (neighbors.empty()) {
      ++idle;
      level = std::min(level + 1, params_.max_neighborhood_level);
      continue;
    }
    Window best_nb;
    bool have_best = false;
    for (Window& nb : neighbors) {
      // Neighbourhood-boundary poll: a deadline is honored within one
      // evaluation, so best-so-far is returned promptly even when a single
      // shell is expensive.
      if ((*stop = ctx.ShouldStop(cc.evaluator->evaluations()))) {
        return best_seen;
      }
      nb.mi = SafeScore(cc, nb);
      if (!have_best || nb.mi > best_nb.mi) {
        best_nb = nb;
        have_best = true;
      }
    }
    const size_t slot = history.SampleSlot(*cc.rng);
    const double history_value = history.ValueAt(slot);
    if (best_nb.mi > history_value || best_nb.mi > w.mi) {
      // Policy 1: accept (possibly sideways/downhill through the history).
      w = best_nb;
      idle = 0;
      level = 1;
      mask.Reset();  // the local context moved; re-derive noise directions
      ++cc.counters->accepted_moves;
      if (w.mi > best_seen.mi) best_seen = w;
    } else {
      // Policy 2: no improvement in this neighbourhood; widen it.
      ++idle;
      level = std::min(level + 1, params_.max_neighborhood_level);
      ++cc.counters->rejected_moves;
    }
    if (w.mi > history.ValueAt(slot)) history.Update(slot, w.mi);
  }
  return best_seen;
}

WindowSet Tycos::Run() {
  // The no-limit context never stops a run, so the Result is always ok.
  return std::move(Run(RunContext::None()).value().windows);
}

Result<SearchOutcome> Tycos::Run(const RunContext& ctx) {
  const int units = num_units();
  std::vector<UnitResult> results(static_cast<size_t>(units));
  const ForStatus fs = ParallelFor(
      ResolveThreadCount(params_.num_threads), units, ctx,
      [&](int64_t u) -> std::optional<StopReason> {
        UnitResult& out = results[static_cast<size_t>(u)];
        out = RunUnit(static_cast<int>(u), ctx);
        // A per-unit budget exhausting is local (every unit carries the
        // same budget); only global limits end the whole run.
        if (out.stop && IsTimingDependent(*out.stop)) return out.stop;
        return std::nullopt;
      });
  SearchOutcome outcome = MergeUnits(results, fs.claimed, fs.stop);

  TycosStats total;
  for (int64_t u = 0; u < fs.claimed; ++u) {
    AddWork(results[static_cast<size_t>(u)].work, &total);
  }
  total.stop_reason = outcome.stop_reason;
  total.windows_found = static_cast<int64_t>(outcome.windows.size());
  stats_ = total;
  static obs::Gauge* last_windows = obs::GetGauge("tycos.last_windows_found");
  last_windows->Set(stats_.windows_found);
  return outcome;
}

Tycos::UnitResult Tycos::RunUnit(int u, const RunContext& ctx) const {
  UnitResult out;
  std::unique_ptr<WindowEvaluator> evaluator =
      MakeEvaluator(pair_, params_, use_incremental());
  // The work tallies read the stack itself, beneath any test wrapper.
  const WindowEvaluator& stack = *evaluator;
  if (test_wrapper_) evaluator = test_wrapper_(std::move(evaluator));
  Rng rng(UnitSeed(u));

  const bool scan = params_.num_restarts == 0;
  const int64_t n = pair_.size();
  // Valid start cursors are [0, n - s_min]; params validation guarantees
  // s_min <= s_max <= n, so there is at least one.
  const int64_t usable = n - params_.s_min + 1;
  int64_t cursor = scan ? 0 : u * usable / params_.num_restarts;
  ResultCollector results(params_);
  while (cursor + params_.s_min <= n) {
    if ((out.stop = ctx.ShouldStop(evaluator->evaluations()))) break;
    ClimbCounters counters;
    const ClimbContext cc{evaluator.get(), &rng, &counters};
    Window w0;
    if (use_noise()) {
      std::optional<Window> init =
          InitialNoisePruning(pair_, *evaluator, params_, cursor);
      if (!init.has_value()) break;  // nothing above ε remains
      w0 = *init;
      if (!std::isfinite(w0.mi)) {
        ++counters.non_finite_scores;
        w0.mi = 0.0;
      }
    } else {
      w0 = Window(cursor, cursor + params_.s_min - 1, 0);
      w0.mi = SafeScore(cc, w0);
    }
    // Even when the climb was interrupted, its best-so-far window is a
    // genuinely evaluated candidate: offering it through the normal accept
    // path keeps a partial result a valid non-nested, σ-respecting set.
    const Window w = Climb(cc, w0, ctx, &out.stop);
    FlushClimbCounters(counters);
    ++out.work.climbs;
    out.work.accepted_moves += counters.accepted_moves;
    out.work.rejected_moves += counters.rejected_moves;
    out.work.noise_blocked += counters.noise_blocked;
    out.work.non_finite_scores += counters.non_finite_scores;
    out.windows.push_back(w);
    // A restart climbs once. The scan restarts on the remaining data
    // (Algorithm 1 line 21), advancing at least s_min so it terminates.
    if (!scan || out.stop.has_value()) break;
    const int64_t resume_after =
        results.Offer(w) ? std::max(w.end, w0.end) : w0.end;
    cursor = std::max(cursor + params_.s_min, resume_after + 1);
  }

  // Settle the stack's locally tallied work (mi.*, incremental.*) in the
  // registry before it is destroyed.
  evaluator->FlushObsCounters();
  out.work.mi_evaluations = stack.evaluations();
  out.work.cache_hits = stack.cache_hits();
  out.work.degenerate_windows = stack.degenerate_windows();
  if (test_wrapper_) {
    test_stacks_[static_cast<size_t>(u)] = std::move(evaluator);
  }
  return out;
}

SearchOutcome Tycos::MergeUnits(const std::vector<UnitResult>& units,
                                int64_t claimed,
                                std::optional<StopReason> loop_stop) const {
  ResultCollector results(params_);
  std::optional<StopReason> stop;
  for (int64_t u = 0; u < claimed; ++u) {
    const UnitResult& unit = units[static_cast<size_t>(u)];
    if (unit.stop.has_value() && !stop.has_value()) stop = unit.stop;
    for (const Window& w : unit.windows) results.Offer(w);
  }
  const bool cut = claimed < static_cast<int64_t>(units.size());
  if (!stop.has_value() && cut) stop = loop_stop;
  SearchOutcome outcome;
  outcome.windows = results.Take();
  outcome.partial = stop.has_value() || cut;
  outcome.stop_reason = stop.value_or(StopReason::kCompleted);
  return outcome;
}

}  // namespace tycos
