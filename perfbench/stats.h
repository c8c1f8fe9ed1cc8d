// Order statistics for tycos_bench: median, quartiles, and the
// tail rule every reported percentile follows.
//
//   * Tail(v): the highest percentile of a fixed ladder that still has at
//     least kTailBeyond samples strictly above it. A percentile with fewer
//     samples beyond it rests on one or two observations, i.e. on noise.
//   * Tail(v, 99): the same rule capped at p99 — a p99 with a sample-count
//     guard. Below 1000 samples it reports a lower percentile and says so.
//
// Percentiles use the nearest-rank definition (the value at rank
// ceil(p/100 · n)), so every reported value is an observed sample.
// Quartiles follow Python's statistics.quantiles(v, n=4) (its default
// "exclusive" method), so tycos_bench and ab.py agree on them.

#ifndef TYCOS_PERFBENCH_STATS_H_
#define TYCOS_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace tycos {
namespace perfbench {

inline constexpr int64_t kTailBeyond = 10;

inline std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// Median of the sample (mean of the middle two for an even size); 0 for an
// empty one.
inline double Median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  const std::vector<double> s = Sorted(v);
  const size_t mid = s.size() / 2;
  return s.size() % 2 == 1 ? s[mid] : (s[mid - 1] + s[mid]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

// statistics.quantiles(v, n=4): cut points at i·(n+1)/4, interpolated
// (or, near the ends of a tiny sample, extrapolated) between the two
// nearest ranks. A single sample is its own quartiles; an empty one
// reports zeros.
inline Quartiles QuartilesOf(const std::vector<double>& v) {
  if (v.empty()) return {};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  const std::vector<double> s = Sorted(v);
  const auto n = static_cast<int64_t>(s.size());
  const int64_t m = n + 1;
  double cut[3];
  for (int64_t i = 1; i <= 3; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, n - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    cut[i - 1] = (s[static_cast<size_t>(j - 1)] * (4.0 - delta) +
                  s[static_cast<size_t>(j)] * delta) /
                 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

struct TailValue {
  double percentile = 0.0;  // the ladder rung reported
  double value = 0.0;
  int64_t samples = 0;      // sample size
  int64_t beyond = 0;       // samples strictly above `value`
};

// The highest rung of {50, 75, 90, 95, 99, 99.9, 99.99} not above
// `max_percentile` with at least kTailBeyond samples strictly above its
// value. Ties at the value do not count as beyond, so a sample dominated
// by one repeated value reports a lower rung. When no rung qualifies (under
// ~20 samples, or a sample of ties) the median rung is reported with its
// true beyond count. An empty sample reports zeros.
inline TailValue Tail(const std::vector<double>& v,
                      double max_percentile = 99.99) {
  TailValue out;
  out.samples = static_cast<int64_t>(v.size());
  if (v.empty()) return out;
  const std::vector<double> s = Sorted(v);
  static constexpr double kLadder[] = {99.99, 99.9, 99, 95, 90, 75, 50};
  for (const double p : kLadder) {
    if (p > max_percentile && p != 50) continue;
    // The epsilon keeps p·n/100 from rounding up past an exact rank.
    auto rank = static_cast<int64_t>(
        std::ceil(p * static_cast<double>(out.samples) / 100.0 - 1e-9));
    rank = std::clamp<int64_t>(rank, 1, out.samples);
    out.percentile = p;
    out.value = s[static_cast<size_t>(rank - 1)];
    out.beyond = static_cast<int64_t>(
        s.end() - std::upper_bound(s.begin(), s.end(), out.value));
    if (out.beyond >= kTailBeyond) break;
  }
  return out;
}

}  // namespace perfbench
}  // namespace tycos

#endif  // TYCOS_PERFBENCH_STATS_H_
