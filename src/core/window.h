// Time delay windows (paper Definition 4.5) and window algebra: containment,
// overlap, the consecutive test (Definition 6.2), and the concatenation
// operation ⊙ (Definition 6.3).

#ifndef TYCOS_CORE_WINDOW_H_
#define TYCOS_CORE_WINDOW_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/time_series.h"

namespace tycos {

// A time delay window w = ([t_s, t_e], τ).
//
// `start` and `end` are inclusive indices into X; the mapped window on Y is
// [start + delay, end + delay]. Size is end - start + 1.
struct Window {
  int64_t start = 0;
  int64_t end = 0;
  int64_t delay = 0;

  // MI (or normalized MI) of the window, filled in by the search. Windows
  // fresh from construction carry 0.
  double mi = 0.0;

  Window() = default;
  Window(int64_t s, int64_t e, int64_t tau, double mi_value = 0.0)
      : start(s), end(e), delay(tau), mi(mi_value) {}

  int64_t size() const { return end - start + 1; }
  int64_t y_start() const { return start + delay; }
  int64_t y_end() const { return end + delay; }

  // Identity on the search grid (MI excluded).
  bool SameSpan(const Window& o) const {
    return start == o.start && end == o.end && delay == o.delay;
  }

  std::string ToString() const;
};

// True when w is a legal window for a pair of length n under the given
// size/delay constraints (the "feasible window" predicate of Section 5.1).
bool IsFeasible(const Window& w, int64_t n, int64_t s_min, int64_t s_max,
                int64_t td_max);

// True when `inner`'s X-interval lies inside `outer`'s X-interval and both
// share the same delay (w_i ⊆ w_j in the problem statement).
bool Contains(const Window& outer, const Window& inner);

// True when the X-intervals of a and b intersect (delays ignored).
bool Overlaps(const Window& a, const Window& b);

// Definition 6.2: b starts right after a ends and both have the same delay.
bool AreConsecutive(const Window& a, const Window& b);

// Definition 6.3: joins consecutive windows a ⊙ b into ([a.start, b.end], τ).
// Requires AreConsecutive(a, b). The result's MI is left at 0; callers
// re-estimate it.
Window Concatenate(const Window& a, const Window& b);

// The (X_w, Y_w) samples a window selects, as views into the pair's series.
struct WindowSamples {
  std::span<const double> x;
  std::span<const double> y;
};

// The samples w selects from `pair`, read in place. The window must map to
// valid indices on both series (CHECKed). The views live as long as `pair`.
WindowSamples WindowSpans(const SeriesPair& pair, const Window& w);

// Copies WindowSpans(pair, w) into xs and ys.
void ExtractSamples(const SeriesPair& pair, const Window& w,
                    std::vector<double>* xs, std::vector<double>* ys);

}  // namespace tycos

#endif  // TYCOS_CORE_WINDOW_H_
