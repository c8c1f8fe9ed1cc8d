#include "core/window.h"

#include <cstdio>

namespace tycos {

std::string Window::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "([%lld, %lld], tau=%lld, mi=%.4f)",
                static_cast<long long>(start), static_cast<long long>(end),
                static_cast<long long>(delay), mi);
  return buf;
}

bool IsFeasible(const Window& w, int64_t n, int64_t s_min, int64_t s_max,
                int64_t td_max) {
  if (w.start < 0 || w.end >= n || w.start > w.end) return false;
  if (w.size() < s_min || w.size() > s_max) return false;
  if (w.delay > td_max || w.delay < -td_max) return false;
  if (w.y_start() < 0 || w.y_end() >= n) return false;
  return true;
}

bool Contains(const Window& outer, const Window& inner) {
  return outer.delay == inner.delay && outer.start <= inner.start &&
         inner.end <= outer.end;
}

bool Overlaps(const Window& a, const Window& b) {
  return a.start <= b.end && b.start <= a.end;
}

bool AreConsecutive(const Window& a, const Window& b) {
  return b.start == a.end + 1 && a.delay == b.delay;
}

Window Concatenate(const Window& a, const Window& b) {
  TYCOS_CHECK(AreConsecutive(a, b));
  return Window(a.start, b.end, a.delay);
}

WindowSamples WindowSpans(const SeriesPair& pair, const Window& w) {
  TYCOS_CHECK_GE(w.start, 0);
  TYCOS_CHECK_LT(w.end, pair.size());
  TYCOS_CHECK_GE(w.y_start(), 0);
  TYCOS_CHECK_LT(w.y_end(), pair.size());
  const size_t m = static_cast<size_t>(w.size());
  return {std::span<const double>(pair.x().values())
              .subspan(static_cast<size_t>(w.start), m),
          std::span<const double>(pair.y().values())
              .subspan(static_cast<size_t>(w.y_start()), m)};
}

void ExtractSamples(const SeriesPair& pair, const Window& w,
                    std::vector<double>* xs, std::vector<double>* ys) {
  const WindowSamples samples = WindowSpans(pair, w);
  xs->assign(samples.x.begin(), samples.x.end());
  ys->assign(samples.y.begin(), samples.y.end());
}

}  // namespace tycos
