#include "search/evaluator.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "mi/entropy.h"
#include "obs/metrics.h"

namespace tycos {

namespace {

// Publishes `now - *flushed` on `counter` and advances the watermark.
// Skipping the zero-delta case keeps a flush on an idle evaluator free.
void FlushCounterDelta(obs::Counter* counter, int64_t now, int64_t* flushed) {
  if (now == *flushed) return;
  counter->Add(now - *flushed);
  *flushed = now;
}

obs::Counter* MiEvaluationsCounter() {
  static obs::Counter* c = obs::GetCounter("mi.evaluations");
  return c;
}

obs::Counter* MiDegenerateCounter() {
  static obs::Counter* c = obs::GetCounter("mi.degenerate_windows");
  return c;
}

double NormalizeScore(double raw_mi, const SeriesPair& pair, const Window& w,
                      const TycosParams& params) {
  if (!std::isfinite(raw_mi)) return 0.0;
  if (params.small_sample_penalty > 0.0 && w.size() > 0) {
    raw_mi -=
        params.small_sample_penalty / std::sqrt(static_cast<double>(w.size()));
  }
  if (raw_mi <= 0.0) return 0.0;
  if (params.normalization == MiNormalization::kCorrelationCoefficient) {
    return std::sqrt(1.0 - std::exp(-2.0 * raw_mi));
  }
  std::vector<double> xs, ys;
  ExtractSamples(pair, w, &xs, &ys);
  const double h = HistogramJointEntropy(xs, ys);
  if (h <= 0.0) return 0.0;
  return std::clamp(raw_mi / h, 0.0, 1.0);
}

KsgOptions OptionsFrom(const TycosParams& params) {
  KsgOptions o;
  o.k = params.k;
  o.tie_jitter = 0.0;  // jitter is applied to the series once, up front
  o.theiler_window = params.theiler_window;
  return o;
}

}  // namespace

BatchEvaluator::BatchEvaluator(const SeriesPair& pair,
                               const TycosParams& params)
    : pair_(pair), params_(params) {}

double BatchEvaluator::Score(const Window& w) {
  ++evaluations_;
  KsgOptions options = OptionsFrom(params_);
  options.diagnostics = &diagnostics_;
  const double raw = KsgMi(pair_, w, options);
  return NormalizeScore(raw, pair_, w, params_);
}

void BatchEvaluator::FlushObsCounters() {
  FlushCounterDelta(MiEvaluationsCounter(), evaluations_,
                    &flushed_evaluations_);
  FlushCounterDelta(MiDegenerateCounter(), diagnostics_.degenerate_windows,
                    &flushed_degenerate_);
}

IncrementalEvaluator::IncrementalEvaluator(const SeriesPair& pair,
                                           const TycosParams& params,
                                           int64_t small_window_threshold)
    : pair_(pair),
      params_(params),
      ksg_(pair, params.k),
      small_window_threshold_(small_window_threshold) {}

double IncrementalEvaluator::Score(const Window& w) {
  ++evaluations_;
  double raw;
  if (w.size() < small_window_threshold_) {
    KsgOptions options = OptionsFrom(params_);
    options.diagnostics = &diagnostics_;
    raw = KsgMi(pair_, w, options);
  } else {
    raw = ksg_.SetWindow(w);
  }
  return NormalizeScore(raw, pair_, w, params_);
}

void IncrementalEvaluator::FlushObsCounters() {
  FlushCounterDelta(MiEvaluationsCounter(), evaluations_,
                    &flushed_evaluations_);
  // degenerate_windows() spans both the stateless small-window path and the
  // incremental estimator; the ksg_ flush below covers the incremental.*
  // family only, so nothing is double counted.
  FlushCounterDelta(MiDegenerateCounter(), degenerate_windows(),
                    &flushed_degenerate_);
  ksg_.FlushObsCounters();
}

CachingEvaluator::CachingEvaluator(std::unique_ptr<WindowEvaluator> inner,
                                   size_t max_entries)
    : inner_(std::move(inner)), max_entries_(max_entries) {}

size_t CachingEvaluator::SpanHash::operator()(
    const SpanKey& k) const noexcept {
  return static_cast<size_t>(Fnv1a(&k, sizeof(k)));
}

double CachingEvaluator::Score(const Window& w) {
  const SpanKey key{w.start, w.end, w.delay};
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    ++hits_;
    return it->second;
  }
  const double score = inner_->Score(w);
  if (cache_.size() >= max_entries_) cache_.clear();
  cache_.emplace(key, score);
  return score;
}

void CachingEvaluator::FlushObsCounters() {
  static obs::Counter* hits = obs::GetCounter("mi.cache_hits");
  FlushCounterDelta(hits, hits_, &flushed_hits_);
  inner_->FlushObsCounters();
}

std::unique_ptr<WindowEvaluator> MakeEvaluator(const SeriesPair& pair,
                                               const TycosParams& params,
                                               bool incremental) {
  std::unique_ptr<WindowEvaluator> core;
  if (incremental && params.theiler_window == 0) {
    core = std::make_unique<IncrementalEvaluator>(pair, params);
  } else {
    core = std::make_unique<BatchEvaluator>(pair, params);
  }
  if (!params.cache_evaluations) return core;
  return std::make_unique<CachingEvaluator>(std::move(core));
}

}  // namespace tycos
