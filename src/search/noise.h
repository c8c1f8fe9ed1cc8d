// The MI-based noise theory of Section 6: initial noise pruning (Fig. 7)
// that finds a promising starting window, and the subsequent noise test
// (Definition 6.4) that masks unpromising extension directions during the
// climb.

#ifndef TYCOS_SEARCH_NOISE_H_
#define TYCOS_SEARCH_NOISE_H_

#include <optional>

#include "core/time_series.h"
#include "core/window.h"
#include "search/evaluator.h"
#include "search/params.h"

namespace tycos {

// Directions a climb may extend a window in. The noise test masks
// directions for the remainder of the current climb (Section 6.2.2).
struct DirectionMask {
  bool extend_end_blocked = false;    // t_e growth along +y axis
  bool extend_start_blocked = false;  // t_s growth along -x axis

  void Reset() { extend_end_blocked = extend_start_blocked = false; }
};

// Initial noise pruning (Section 6.2.1, Fig. 7).
//
// Starting at X index `from`, combines consecutive s_min blocks, discarding
// accumulations whose next block is noise (Definition 6.4), until a window
// scoring >= ε is found. Every block is probed at τ = 0 and at each delay
// out to ±td_max (step params.initial_delay_step; 0 probes every delay),
// and the best-scoring placement is used — this lets the search start in
// the basin of a delayed correlation. Returns nullopt when the rest of the
// series contains no window above ε.
std::optional<Window> InitialNoisePruning(const SeriesPair& pair,
                                          WindowEvaluator& evaluator,
                                          const TycosParams& params,
                                          int64_t from);

// Subsequent noise detection (Section 6.2.2) for the current window w.
//
// For each unblocked extension direction, evaluates the adjacent chunk w_δ
// (length max(δ, s_min)) and the concatenation w ⊙ w_δ. The direction is
// blocked when score(w_δ) < ε and score(w ⊙ w_δ) < score(w), i.e. the chunk
// is noise w.r.t. w. Returns the number of directions newly blocked.
int DetectSubsequentNoise(const SeriesPair& pair, WindowEvaluator& evaluator,
                          const TycosParams& params, const Window& w,
                          double current_score, DirectionMask* mask);

}  // namespace tycos

#endif  // TYCOS_SEARCH_NOISE_H_
