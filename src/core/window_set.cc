#include "core/window_set.h"

#include <algorithm>

namespace tycos {

bool WindowSet::Insert(const Window& w) {
  std::vector<size_t> nested;  // incumbents nested with w
  for (size_t i = 0; i < windows_.size(); ++i) {
    const Window& in = windows_[i];
    if (in.SameSpan(w)) return false;  // exact duplicate
    if (Contains(in, w) || Contains(w, in)) {
      if (in.mi >= w.mi) return false;  // an incumbent dominates w
      nested.push_back(i);
    }
  }
  // w beats every nested incumbent: evict them (back to front).
  for (auto it = nested.rbegin(); it != nested.rend(); ++it) {
    windows_.erase(windows_.begin() + static_cast<long>(*it));
  }
  windows_.push_back(w);
  return true;
}

std::vector<Window> WindowSet::Sorted() const {
  std::vector<Window> out = windows_;
  std::sort(out.begin(), out.end(), [](const Window& a, const Window& b) {
    if (a.start != b.start) return a.start < b.start;
    if (a.end != b.end) return a.end < b.end;
    return a.delay < b.delay;
  });
  return out;
}

int64_t WindowSet::MinDelay() const {
  int64_t best = 0;
  bool first = true;
  for (const Window& w : windows_) {
    if (first || w.delay < best) best = w.delay;
    first = false;
  }
  return best;
}

int64_t WindowSet::MaxDelay() const {
  int64_t best = 0;
  bool first = true;
  for (const Window& w : windows_) {
    if (first || w.delay > best) best = w.delay;
    first = false;
  }
  return best;
}

std::vector<Window> MergeOverlapping(std::vector<Window> windows) {
  std::sort(windows.begin(), windows.end(),
            [](const Window& a, const Window& b) {
              if (a.delay != b.delay) return a.delay < b.delay;
              if (a.start != b.start) return a.start < b.start;
              return a.end < b.end;
            });
  std::vector<Window> merged;
  for (const Window& w : windows) {
    if (!merged.empty() && merged.back().delay == w.delay &&
        w.start <= merged.back().end + 1) {
      merged.back().end = std::max(merged.back().end, w.end);
      merged.back().mi = std::max(merged.back().mi, w.mi);
    } else {
      merged.push_back(w);
    }
  }
  return merged;
}

}  // namespace tycos
