#include "search/evaluator.h"

#include "common/hash.h"
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

// The score of a window given its raw MI: NormalizeMi over the window's
// samples, read in place, so the default mode reads no samples and the
// entropy ratio copies none.
double NormalizeWindow(double raw_mi, const WindowSamples& samples,
                       const TycosParams& params) {
  return NormalizeMi(raw_mi, samples.x, samples.y, params.normalization,
                     params.small_sample_penalty);
}

KsgOptions OptionsFrom(const TycosParams& params) {
  KsgOptions o;
  o.k = params.k;
  return o;
}

}  // namespace

BatchEvaluator::BatchEvaluator(const SeriesPair& pair,
                               const TycosParams& params)
    : pair_(pair), params_(params) {}

double BatchEvaluator::Score(const Window& w) {
  ++evaluations_;
  const WindowSamples samples = WindowSpans(pair_, w);
  KsgOptions options = OptionsFrom(params_);
  options.diagnostics = &diagnostics_;
  const double raw = KsgMi(samples.x, samples.y, options);
  return NormalizeWindow(raw, samples, params_);
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
  const WindowSamples samples = WindowSpans(pair_, w);
  double raw;
  if (w.size() < small_window_threshold_) {
    KsgOptions options = OptionsFrom(params_);
    options.diagnostics = &diagnostics_;
    raw = KsgMi(samples.x, samples.y, options);
  } else {
    raw = ksg_.SetWindow(w);
  }
  return NormalizeWindow(raw, samples, params_);
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
  if (incremental) {
    core = std::make_unique<IncrementalEvaluator>(pair, params);
  } else {
    core = std::make_unique<BatchEvaluator>(pair, params);
  }
  if (!params.cache_evaluations) return core;
  return std::make_unique<CachingEvaluator>(std::move(core));
}

}  // namespace tycos
