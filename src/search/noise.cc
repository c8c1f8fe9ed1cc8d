#include "search/noise.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"

namespace tycos {

namespace {

// Delay candidates for placing an initial block: τ = 0 plus a grid of
// params.initial_delay_step out to ±td_max.
std::vector<int64_t> DelayGrid(const TycosParams& params) {
  std::vector<int64_t> delays = {0};
  // Default to exhaustive τ probing: on serially-uncorrelated data a lagged
  // correlation only lights up at its exact delay, so any coarser grid can
  // miss it outright. Autocorrelated data has wider basins; callers can
  // coarsen via initial_delay_step to trade recall for scan speed.
  const int64_t step =
      params.initial_delay_step > 0 ? params.initial_delay_step : 1;
  for (int64_t d = step; d <= params.td_max; d += step) {
    delays.push_back(d);
    delays.push_back(-d);
  }
  if (params.td_max > 0 && params.td_max % step != 0) {
    delays.push_back(params.td_max);
    delays.push_back(-params.td_max);
  }
  return delays;
}

bool FitsSeries(const Window& w, int64_t n) {
  return w.start >= 0 && w.end < n && w.y_start() >= 0 && w.y_end() < n;
}

// Best-scoring placement of the block [s, e] over the delay grid. Returns
// false when no delay keeps the block inside the series.
bool BestPlacement(const SeriesPair& pair, WindowEvaluator& evaluator,
                   const std::vector<int64_t>& delays, int64_t s, int64_t e,
                   Window* best) {
  bool found = false;
  for (int64_t tau : delays) {
    Window w(s, e, tau);
    if (!FitsSeries(w, pair.size())) continue;
    w.mi = evaluator.Score(w);
    if (!found || w.mi > best->mi) {
      *best = w;
      found = true;
    }
  }
  return found;
}

}  // namespace

std::optional<Window> InitialNoisePruning(const SeriesPair& pair,
                                          WindowEvaluator& evaluator,
                                          const TycosParams& params,
                                          int64_t from) {
  static obs::Counter* scans = obs::GetCounter("noise.initial_scans");
  scans->Add(1);
  const double eps = params.epsilon();
  const int64_t n = pair.size();
  const int64_t block = params.s_min;
  // The accumulator is a bootstrap for finding a *starting point*, not the
  // final window: cap its growth independently of s_max, otherwise a long
  // noise prefix can dilute a genuine event below ε forever.
  const int64_t acc_cap =
      std::min(params.s_max, std::max<int64_t>(8 * block, 64));
  const std::vector<int64_t> delays = DelayGrid(params);

  std::optional<Window> acc;
  int64_t pos = std::max<int64_t>(from, 0);
  while (pos + block <= n) {
    Window b;
    if (!BestPlacement(pair, evaluator, delays, pos, pos + block - 1, &b)) {
      pos += block;
      continue;
    }
    if (b.mi >= eps) return b;  // a good start on its own

    if (!acc.has_value()) {
      acc = b;
      pos += block;
      continue;
    }

    // Concatenate the accumulated window with the new block at the
    // accumulator's delay (Definition 6.3 requires equal delays).
    Window concat(acc->start, pos + block - 1, acc->delay);
    const bool concat_ok = concat.size() <= acc_cap && FitsSeries(concat, n);
    if (!concat_ok) {
      acc = b;  // accumulator saturated; restart from the fresh block
      pos += block;
      continue;
    }
    concat.mi = evaluator.Score(concat);
    if (concat.mi >= eps) return concat;

    // Noise test (Definition 6.4): the block, aligned to the accumulator's
    // delay, is noise when it scores below ε and drags the concatenation
    // below the accumulator.
    Window b_aligned(pos, pos + block - 1, acc->delay);
    double b_aligned_score = b.mi;
    if (b.delay != acc->delay) {
      b_aligned_score =
          FitsSeries(b_aligned, n) ? evaluator.Score(b_aligned) : 0.0;
    }
    if (b_aligned_score < eps && concat.mi < acc->mi) {
      // Discard both the accumulator and the noisy block (Fig. 7 step 3.3):
      // the block seeds a fresh accumulation.
      acc = b;
    } else {
      // Fig. 7 step 2: keep the best of the three candidate windows.
      if (concat.mi >= acc->mi && concat.mi >= b.mi) {
        acc = concat;
      } else if (b.mi >= acc->mi) {
        acc = b;
      }
      // else: keep acc as is.
    }
    pos += block;
  }
  return std::nullopt;
}

int DetectSubsequentNoise(const SeriesPair& pair, WindowEvaluator& evaluator,
                          const TycosParams& params, const Window& w,
                          double current_score, DirectionMask* mask) {
  static obs::Counter* tests = obs::GetCounter("noise.subsequent_tests");
  tests->Add(1);
  const double eps = params.epsilon();
  const int64_t n = pair.size();
  const int64_t chunk_len = std::max(params.delta, params.s_min);
  int blocked = 0;

  if (!mask->extend_end_blocked) {
    Window chunk(w.end + 1, w.end + chunk_len, w.delay);
    Window concat(w.start, w.end + chunk_len, w.delay);
    if (FitsSeries(chunk, n) && FitsSeries(concat, n) &&
        concat.size() <= params.s_max) {
      if (evaluator.Score(chunk) < eps &&
          evaluator.Score(concat) < current_score) {
        mask->extend_end_blocked = true;
        ++blocked;
      }
    }
  }
  if (!mask->extend_start_blocked) {
    Window chunk(w.start - chunk_len, w.start - 1, w.delay);
    Window concat(w.start - chunk_len, w.end, w.delay);
    if (FitsSeries(chunk, n) && FitsSeries(concat, n) &&
        concat.size() <= params.s_max) {
      if (evaluator.Score(chunk) < eps &&
          evaluator.Score(concat) < current_score) {
        mask->extend_start_blocked = true;
        ++blocked;
      }
    }
  }
  return blocked;
}

}  // namespace tycos
