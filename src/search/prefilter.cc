#include "search/prefilter.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/parallel_for.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "search/pairwise.h"

namespace tycos {

namespace {

// Widening guard on the stage-1 radius: the sketch/projection bound is
// exact in real arithmetic, but the z-normalized segment sums and the
// projection round, so the radius is inflated by a relative epsilon
// before any pair is compared against it. Stage 2 subtracts an absolute
// guard from the threshold for the same reason: its r comes from rounded
// dot products and window statistics, so a window whose exact |r| is T
// may score a few ulps below it.
constexpr double kEpsilonSlack = 1e-9;
constexpr double kPearsonGuard = 1e-6;

// Hash of one grid cell: the position cell plus the projected-coordinate
// cells. Distinct cells may collide — a collision only adds candidates
// (every candidate is re-checked with the exact sketch distance), never
// removes one, so soundness is unaffected.
uint64_t CellHash(int64_t pos_cell, const int64_t* cells, int dims) {
  uint64_t h = Fnv1a(&pos_cell, sizeof(pos_cell));
  for (int d = 0; d < dims; ++d) {
    h = Fnv1a(&cells[d], sizeof(cells[d]), h);
  }
  return h;
}

// PAA segment layout over a length-n window: k near-equal segments,
// offsets[j] .. offsets[j+1]. scale[j] = 1/sqrt(len_j) turns a z-normed
// segment sum into the weighted PAA coordinate sqrt(len_j) * mean_j.
struct SegmentLayout {
  std::vector<int64_t> offsets;  // size k + 1
  std::vector<double> scale;     // size k
};

SegmentLayout MakeSegments(int64_t n, int k) {
  SegmentLayout out;
  out.offsets.resize(static_cast<size_t>(k) + 1);
  out.scale.resize(static_cast<size_t>(k));
  for (int j = 0; j <= k; ++j) {
    out.offsets[static_cast<size_t>(j)] = n * j / k;
  }
  for (int j = 0; j < k; ++j) {
    const int64_t len = out.offsets[static_cast<size_t>(j) + 1] -
                        out.offsets[static_cast<size_t>(j)];
    out.scale[static_cast<size_t>(j)] =
        len > 0 ? 1.0 / std::sqrt(static_cast<double>(len)) : 0.0;
  }
  return out;
}

// Mean and population standard deviation of one length-n window, in two
// passes (the sum, then the squared deviations from the mean), so an
// offset far beyond the window's spread cannot cancel the variance away.
struct WindowStats {
  double mean;
  double std;
};

WindowStats StatsAt(const double* w, int64_t n) {
  const double dm = static_cast<double>(n);
  double sum = 0.0;
  for (int64_t j = 0; j < n; ++j) sum += w[j];
  const double mean = sum / dm;
  double sq = 0.0;
  for (int64_t j = 0; j < n; ++j) sq += (w[j] - mean) * (w[j] - mean);
  return {mean, std::sqrt(sq / dm)};
}

// Weighted PAA sketch of the z-normalized window `w` with statistics
// `st`: out[j] = sqrt(len_j) · mean_j((w − μ) / σ), each segment summed
// straight from the series. A constant window (σ ≈ 0) sketches to the
// zero vector, matching Pearson r = 0.
void SketchAt(const double* w, const WindowStats& st,
              const SegmentLayout& seg, double* out) {
  const size_t k = seg.scale.size();
  if (st.std < 1e-12) {
    for (size_t j = 0; j < k; ++j) out[j] = 0.0;
    return;
  }
  const double inv_std = 1.0 / st.std;
  for (size_t j = 0; j < k; ++j) {
    double sum = 0.0;
    for (int64_t t = seg.offsets[j]; t < seg.offsets[j + 1]; ++t) {
      sum += w[t] - st.mean;
    }
    out[j] = sum * inv_std * seg.scale[j];
  }
}

// Cyclic Jacobi eigendecomposition of the symmetric k×k matrix `a`
// (row-major, consumed). Eigenvectors come back as columns of `vecs`
// (vecs[i*k + c] = component i of eigenvector c), eigenvalues in `vals`.
// Deterministic: fixed sweep order, fixed iteration cap, no RNG.
void JacobiEigen(std::vector<double> a, int k, std::vector<double>* vals,
                 std::vector<double>* vecs) {
  const size_t kk = static_cast<size_t>(k);
  vecs->assign(kk * kk, 0.0);
  for (size_t i = 0; i < kk; ++i) (*vecs)[i * kk + i] = 1.0;
  double frob = 0.0;
  for (double v : a) frob += v * v;
  const double tol = 1e-24 * (frob > 0.0 ? frob : 1.0);
  for (int sweep = 0; sweep < 64; ++sweep) {
    double off = 0.0;
    for (size_t p = 0; p < kk; ++p) {
      for (size_t q = p + 1; q < kk; ++q) {
        off += 2.0 * a[p * kk + q] * a[p * kk + q];
      }
    }
    if (off <= tol) break;
    for (size_t p = 0; p < kk; ++p) {
      for (size_t q = p + 1; q < kk; ++q) {
        const double apq = a[p * kk + q];
        if (std::fabs(apq) < 1e-300) continue;
        const double theta = (a[q * kk + q] - a[p * kk + p]) / (2.0 * apq);
        const double t =
            (theta >= 0.0 ? 1.0 : -1.0) /
            (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (size_t i = 0; i < kk; ++i) {
          const double aip = a[i * kk + p];
          const double aiq = a[i * kk + q];
          a[i * kk + p] = c * aip - s * aiq;
          a[i * kk + q] = s * aip + c * aiq;
        }
        for (size_t i = 0; i < kk; ++i) {
          const double api = a[p * kk + i];
          const double aqi = a[q * kk + i];
          a[p * kk + i] = c * api - s * aqi;
          a[q * kk + i] = s * api + c * aqi;
        }
        for (size_t i = 0; i < kk; ++i) {
          const double vip = (*vecs)[i * kk + p];
          const double viq = (*vecs)[i * kk + q];
          (*vecs)[i * kk + p] = c * vip - s * viq;
          (*vecs)[i * kk + q] = s * vip + c * viq;
        }
      }
    }
  }
  vals->resize(kk);
  for (size_t i = 0; i < kk; ++i) (*vals)[i] = a[i * kk + i];
}

// Top-`dims` principal directions of the sketch cloud, row-major
// (basis[d*k + j] = component j of direction d). Ordering is by
// eigenvalue descending with index tie-break, and each direction's sign
// is fixed so its largest-magnitude component is positive — the basis is
// a pure function of the Gram matrix.
std::vector<double> PrincipalBasis(const std::vector<double>& gram, int k,
                                   int dims) {
  std::vector<double> vals;
  std::vector<double> vecs;
  JacobiEigen(gram, k, &vals, &vecs);
  const size_t kk = static_cast<size_t>(k);
  std::vector<int> order(kk);
  for (size_t i = 0; i < kk; ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
    return vals[static_cast<size_t>(x)] > vals[static_cast<size_t>(y)];
  });
  std::vector<double> basis(static_cast<size_t>(dims) * kk, 0.0);
  for (int d = 0; d < dims; ++d) {
    const size_t col = static_cast<size_t>(order[static_cast<size_t>(d)]);
    size_t imax = 0;
    double vmax = 0.0;
    for (size_t i = 0; i < kk; ++i) {
      const double v = std::fabs(vecs[i * kk + col]);
      if (v > vmax) {
        vmax = v;
        imax = i;
      }
    }
    const double sign = vecs[imax * kk + col] < 0.0 ? -1.0 : 1.0;
    for (size_t i = 0; i < kk; ++i) {
      basis[static_cast<size_t>(d) * kk + i] = sign * vecs[i * kk + col];
    }
  }
  return basis;
}

}  // namespace

Status PrefilterParams::Validate(int64_t series_length) const {
  if (window < 0) {
    return Status::InvalidArgument("prefilter window must be >= 0 (0 = auto)");
  }
  if (window > series_length) {
    return Status::InvalidArgument(
        "prefilter window " + std::to_string(window) +
        " exceeds the series length " + std::to_string(series_length));
  }
  if (hop < 0) {
    return Status::InvalidArgument("prefilter hop must be >= 0 (0 = auto)");
  }
  if (paa_segments < 1) {
    return Status::InvalidArgument("prefilter paa_segments must be >= 1");
  }
  const int64_t resolved_window = ResolvedWindow(series_length);
  if (paa_segments > resolved_window) {
    return Status::InvalidArgument(
        "prefilter paa_segments " + std::to_string(paa_segments) +
        " exceeds the window length " + std::to_string(resolved_window));
  }
  if (svd_dims < 1 || svd_dims > paa_segments) {
    return Status::InvalidArgument(
        "prefilter svd_dims must be in [1, paa_segments]");
  }
  if (td_max < 0) {
    return Status::InvalidArgument(
        "prefilter td_max must be >= 0 (ResolveAllPairsPrefilter derives "
        "it from TycosParams.td_max; RunPrefilter needs an explicit value)");
  }
  if (pearson_threshold < 0.0 || pearson_threshold > 1.0) {
    return Status::InvalidArgument(
        "prefilter pearson_threshold must be in [0, 1] (0 = derive from "
        "sigma)");
  }
  if (!(mi_conservativeness > 0.0) || mi_conservativeness > 1.0) {
    return Status::InvalidArgument(
        "prefilter mi_conservativeness must be in (0, 1]");
  }
  return Status::Ok();
}

int64_t PrefilterParams::ResolvedWindow(int64_t series_length) const {
  return window > 0 ? window : std::min<int64_t>(128, series_length);
}

int64_t PrefilterParams::ResolvedHop(int64_t series_length) const {
  return hop > 0 ? hop
                 : std::max<int64_t>(ResolvedWindow(series_length) / 2, 1);
}

double ResolvePearsonThreshold(const PrefilterParams& params, double sigma) {
  double t = params.pearson_threshold > 0.0
                 ? params.pearson_threshold
                 : params.mi_conservativeness * sigma;
  if (t < 1e-6) t = 1e-6;
  if (t > 1.0) t = 1.0;
  return t;
}

std::vector<std::pair<int, int>> PrefilterOutcome::PairList() const {
  std::vector<std::pair<int, int>> out;
  out.reserve(survivors.size());
  for (const PrefilterSurvivor& s : survivors) out.emplace_back(s.a, s.b);
  return out;
}

Result<PrefilterOutcome> RunPrefilter(const std::vector<TimeSeries>& channels,
                                      const PrefilterParams& params,
                                      double threshold,
                                      const RunContext& ctx) {
  Status st = ValidatePairwiseChannels(channels);
  if (!st.ok()) return st;
  const int64_t series_length = channels[0].size();
  st = params.Validate(series_length);
  if (!st.ok()) return st;
  if (!(threshold > 0.0) || threshold > 1.0) {
    return Status::InvalidArgument(
        "prefilter threshold must be in (0, 1], got " +
        std::to_string(threshold));
  }

  const int num_channels = static_cast<int>(channels.size());
  const int64_t n_win = params.ResolvedWindow(series_length);
  const int64_t hop = params.ResolvedHop(series_length);
  const int64_t td = params.td_max;
  const int k_s = params.paa_segments;
  const int k_b = params.svd_dims;
  const int64_t last_start = series_length - n_win;
  const int64_t num_grid = last_start / hop + 1;

  PrefilterOutcome outcome;
  PrefilterStats& stats = outcome.stats;
  stats.channels = num_channels;
  stats.pairs_total =
      static_cast<int64_t>(num_channels) * (num_channels - 1) / 2;
  stats.threshold = threshold;
  // ‖X − Y‖ = sqrt(2n(1 − r)) for z-normalized windows: any pair holding
  // a window with |r| >= T (either sign) has a sketch pair within this
  // radius. The relative slack absorbs the sketches' rounding.
  stats.epsilon1 = std::sqrt(2.0 * static_cast<double>(n_win) *
                             std::max(0.0, 1.0 - threshold)) *
                   (1.0 + kEpsilonSlack);

  static obs::Counter* pairs_in = obs::GetCounter("prefilter.pairs_in");
  static obs::Counter* stage1_out =
      obs::GetCounter("prefilter.stage1.candidates");
  static obs::Counter* stage2_out =
      obs::GetCounter("prefilter.stage2.candidates");
  static obs::Counter* pruned = obs::GetCounter("prefilter.pairs_pruned");
  static obs::Counter* runs = obs::GetCounter("prefilter.runs");

  Stopwatch stage1_watch;
  const SegmentLayout seg = MakeSegments(n_win, k_s);
  const size_t ks = static_cast<size_t>(k_s);
  const size_t kb = static_cast<size_t>(k_b);

  // Every stage runs on at most one executor per channel.
  const int threads = static_cast<int>(std::min<int64_t>(
      ResolveThreadCount(params.num_threads), num_channels));

  // Probe starts: every window start within ±td of a hop-grid start (the
  // delayed partner of a grid window can begin anywhere in that band).
  // Every grid start is one, and so is every window either stage reads.
  // slot[s] indexes start s in probe_starts; the starts of one band are
  // consecutive slots.
  std::vector<int64_t> probe_starts;
  {
    int64_t next = 0;
    for (int64_t g = 0; g < num_grid; ++g) {
      const int64_t lo = std::max<int64_t>(g * hop - td, next);
      const int64_t hi = std::min<int64_t>(g * hop + td, last_start);
      for (int64_t s = lo; s <= hi; ++s) probe_starts.push_back(s);
      next = std::max(next, hi + 1);
    }
  }
  const size_t num_slots = probe_starts.size();
  std::vector<size_t> slot(static_cast<size_t>(last_start) + 1);
  for (size_t k = 0; k < num_slots; ++k) {
    slot[static_cast<size_t>(probe_starts[k])] = k;
  }

  // --- Stage 1a: window statistics + hop-grid sketches + Gram partials --
  // Each channel's window statistics are computed once, at the probe
  // starts, and both stages read them. Each grid window also gets the mean
  // of its centred copy (the query stage 2 correlates), which is zero but
  // for rounding. One slot per channel; partial Grams merge in channel
  // order below, so the accumulated Gram (and everything derived from it)
  // is bit-identical at any thread count.
  const double dm = static_cast<double>(n_win);
  struct ChannelStats {
    std::vector<WindowStats> windows;   // by slot
    std::vector<double> centred_means;  // by grid start
  };
  std::vector<ChannelStats> channel_stats(static_cast<size_t>(num_channels));
  std::vector<std::vector<double>> grid_sketches(
      static_cast<size_t>(num_channels));
  std::vector<std::vector<double>> gram_partials(
      static_cast<size_t>(num_channels));
  ForStatus fs = ParallelFor(
      threads, num_channels, ctx, [&](int64_t c) -> std::optional<StopReason> {
        const size_t ci = static_cast<size_t>(c);
        const double* x = channels[ci].values().data();
        ChannelStats& cs = channel_stats[ci];
        cs.windows.resize(num_slots);
        for (size_t k = 0; k < num_slots; ++k) {
          cs.windows[k] = StatsAt(x + probe_starts[k], n_win);
        }
        cs.centred_means.resize(static_cast<size_t>(num_grid));
        std::vector<double>& sk = grid_sketches[ci];
        sk.resize(static_cast<size_t>(num_grid) * ks);
        std::vector<double>& gram = gram_partials[ci];
        gram.assign(ks * ks, 0.0);
        for (int64_t g = 0; g < num_grid; ++g) {
          const double* w = x + g * hop;
          const WindowStats& ws =
              cs.windows[slot[static_cast<size_t>(g * hop)]];
          double sum = 0.0;
          for (int64_t j = 0; j < n_win; ++j) sum += w[j] - ws.mean;
          cs.centred_means[static_cast<size_t>(g)] = sum / dm;
          double* out = sk.data() + static_cast<size_t>(g) * ks;
          SketchAt(w, ws, seg, out);
          for (size_t i = 0; i < ks; ++i) {
            for (size_t j = i; j < ks; ++j) {
              gram[i * ks + j] += out[i] * out[j];
            }
          }
        }
        return std::nullopt;
      });
  if (fs.stop.has_value()) {
    outcome.stop = fs.stop;
    return outcome;
  }

  std::vector<double> gram(ks * ks, 0.0);
  for (int c = 0; c < num_channels; ++c) {
    const std::vector<double>& part = gram_partials[static_cast<size_t>(c)];
    for (size_t i = 0; i < ks; ++i) {
      for (size_t j = i; j < ks; ++j) gram[i * ks + j] += part[i * ks + j];
    }
  }
  for (size_t i = 0; i < ks; ++i) {
    for (size_t j = 0; j < i; ++j) gram[i * ks + j] = gram[j * ks + i];
  }
  gram_partials.clear();
  const std::vector<double> basis = PrincipalBasis(gram, k_s, k_b);

  // --- Stage 1b: ε-grid hash over the projected grid sketches -----------
  // Cell width ε₁ with 3^d neighbor probing covers every point within
  // L∞ <= ε₁, and L2 <= ε₁ implies L∞ <= ε₁, so no qualifying pair can
  // fall outside the probed cells. Degenerate ε (threshold = 1) keeps a
  // tiny positive cell so exact duplicates still collide.
  const double cell = std::max(stats.epsilon1, 1e-9);
  const double inv_cell = 1.0 / cell;
  const int64_t pos_cell_width = std::max<int64_t>(td, 1);
  const int64_t num_points = static_cast<int64_t>(num_channels) * num_grid;

  std::vector<double> proj(static_cast<size_t>(num_points) * kb);
  std::unordered_map<uint64_t, std::vector<int32_t>> buckets;
  buckets.reserve(static_cast<size_t>(num_points) * 2);
  {
    std::vector<int64_t> cells(kb);
    for (int64_t id = 0; id < num_points; ++id) {
      const size_t ci = static_cast<size_t>(id / num_grid);
      const int64_t g = id % num_grid;
      const double* sk =
          grid_sketches[ci].data() + static_cast<size_t>(g) * ks;
      double* pr = proj.data() + static_cast<size_t>(id) * kb;
      for (size_t d = 0; d < kb; ++d) {
        double acc = 0.0;
        for (size_t j = 0; j < ks; ++j) acc += basis[d * ks + j] * sk[j];
        pr[d] = acc;
        cells[d] = static_cast<int64_t>(std::floor(acc * inv_cell));
      }
      const int64_t pos = (g * hop) / pos_cell_width;
      buckets[CellHash(pos, cells.data(), k_b)].push_back(
          static_cast<int32_t>(id));
    }
  }

  const double eps_sq = stats.epsilon1 * stats.epsilon1;
  const int probe_dims = k_b + 1;
  int64_t combos = 1;
  for (int d = 0; d < probe_dims; ++d) combos *= 3;

  // --- Stage 1c: probe every channel's band starts against the hash -----
  // Each channel collects its candidate pairs locally; the local sets are
  // merged and canonicalized (sort + unique) after the join, so the
  // candidate list never depends on thread interleaving.
  std::vector<std::vector<uint64_t>> found_per_channel(
      static_cast<size_t>(num_channels));
  fs = ParallelFor(
      threads, num_channels, ctx, [&](int64_t c) -> std::optional<StopReason> {
        const size_t ci = static_cast<size_t>(c);
        const double* x = channels[ci].values().data();
        const ChannelStats& cs = channel_stats[ci];
        std::unordered_set<uint64_t> local;
        std::vector<double> sketch(ks);
        std::vector<double> pr(kb);
        std::vector<int64_t> base_cells(kb);
        std::vector<int64_t> cells(kb);
        for (size_t k = 0; k < num_slots; ++k) {
          const int64_t s = probe_starts[k];
          SketchAt(x + s, cs.windows[k], seg, sketch.data());
          for (size_t d = 0; d < kb; ++d) {
            double acc = 0.0;
            for (size_t j = 0; j < ks; ++j) {
              acc += basis[d * ks + j] * sketch[j];
            }
            pr[d] = acc;
          }
          for (int sign = 0; sign < 2; ++sign) {
            const double flip = sign == 0 ? 1.0 : -1.0;
            const int64_t base_pos = s / pos_cell_width;
            for (size_t d = 0; d < kb; ++d) {
              base_cells[d] =
                  static_cast<int64_t>(std::floor(flip * pr[d] * inv_cell));
            }
            for (int64_t combo = 0; combo < combos; ++combo) {
              int64_t digits = combo;
              const int64_t pos = base_pos + digits % 3 - 1;
              digits /= 3;
              for (size_t d = 0; d < kb; ++d) {
                cells[d] = base_cells[d] + digits % 3 - 1;
                digits /= 3;
              }
              const auto it = buckets.find(CellHash(pos, cells.data(), k_b));
              if (it == buckets.end()) continue;
              for (const int32_t id : it->second) {
                const int c2 = static_cast<int>(id / num_grid);
                if (c2 == static_cast<int>(c)) continue;
                const int64_t other_start = (id % num_grid) * hop;
                const int64_t ds = s - other_start;
                if (ds > td || ds < -td) continue;
                const double* sk2 = grid_sketches[static_cast<size_t>(c2)]
                                        .data() +
                                    static_cast<size_t>(id % num_grid) * ks;
                double d2 = 0.0;
                for (size_t j = 0; j < ks; ++j) {
                  const double diff = flip * sketch[j] - sk2[j];
                  d2 += diff * diff;
                }
                if (d2 > eps_sq) continue;
                const int lo = std::min(static_cast<int>(c), c2);
                const int hi = std::max(static_cast<int>(c), c2);
                local.insert(static_cast<uint64_t>(lo) *
                                 static_cast<uint64_t>(num_channels) +
                             static_cast<uint64_t>(hi));
              }
            }
          }
        }
        found_per_channel[ci].assign(local.begin(), local.end());
        return std::nullopt;
      });
  if (fs.stop.has_value()) {
    outcome.stop = fs.stop;
    return outcome;
  }

  std::vector<uint64_t> candidate_keys;
  for (const std::vector<uint64_t>& part : found_per_channel) {
    candidate_keys.insert(candidate_keys.end(), part.begin(), part.end());
  }
  found_per_channel.clear();
  std::sort(candidate_keys.begin(), candidate_keys.end());
  candidate_keys.erase(
      std::unique(candidate_keys.begin(), candidate_keys.end()),
      candidate_keys.end());
  stats.stage1_candidates = static_cast<int64_t>(candidate_keys.size());
  stats.stage1_seconds = stage1_watch.ElapsedSeconds();

  if (const std::optional<StopReason> stop = ctx.ShouldStop(0)) {
    outcome.stop = stop;
    return outcome;
  }

  // --- Stage 2: exact Pearson prescreen over the candidates -------------
  // For each candidate pair, the max |r| over (hop-grid start on either
  // channel) × (every |delay| <= td) is evaluated from the dot products of
  // the centred query with every window of its band and the windows'
  // statistics; the scan stops as soon as the threshold is crossed. Each
  // pair's scan is a pure function, so slots merge deterministically.
  // Bands hold at most min(2·td, last_start) + 1 windows, whatever td is.
  Stopwatch stage2_watch;
  const size_t max_band = static_cast<size_t>(
      std::min(2 * std::min(td, last_start), last_start) + 1);
  struct PairVerdict {
    double best = 0.0;
    bool pass = false;
  };
  std::vector<PairVerdict> verdicts(candidate_keys.size());
  const double accept = threshold - kPearsonGuard;
  const int64_t num_candidates = static_cast<int64_t>(candidate_keys.size());
  fs = ParallelFor(
      threads, num_candidates, ctx,
      [&](int64_t idx) -> std::optional<StopReason> {
        const uint64_t key = candidate_keys[static_cast<size_t>(idx)];
        const int a =
            static_cast<int>(key / static_cast<uint64_t>(num_channels));
        const int b =
            static_cast<int>(key % static_cast<uint64_t>(num_channels));
        // Built locally and stored once: neighbouring verdicts share cache
        // lines with other threads' pairs.
        PairVerdict v;
        std::vector<double> dots(max_band);
        std::vector<double> centred(static_cast<size_t>(n_win));
        for (int dir = 0; dir < 2 && !v.pass; ++dir) {
          const size_t qc = static_cast<size_t>(dir == 0 ? a : b);
          const size_t tc = static_cast<size_t>(dir == 0 ? b : a);
          const double* qx = channels[qc].values().data();
          const double* tx = channels[tc].values().data();
          const ChannelStats& q_stats = channel_stats[qc];
          const ChannelStats& t_stats = channel_stats[tc];
          for (int64_t g = 0; g < num_grid && !v.pass; ++g) {
            const int64_t qstart = g * hop;
            const int64_t lo = std::max<int64_t>(qstart - td, 0);
            const int64_t hi = std::min<int64_t>(qstart + td, last_start);
            const int64_t band = hi - lo + 1;
            // The query is centred: Pearson r ignores a shift, and without
            // one the dot products cancel catastrophically once the offset
            // dwarfs the windows' spread. Its mean is then zero but for
            // rounding, so dot - n·μq·μw subtracts no large terms. A
            // constant window scores r = 0.
            const WindowStats& q =
                q_stats.windows[slot[static_cast<size_t>(qstart)]];
            for (int64_t j = 0; j < n_win; ++j) {
              centred[static_cast<size_t>(j)] = qx[qstart + j] - q.mean;
            }
            simd::SlidingDots(centred.data(), centred.size(), tx + lo,
                              static_cast<size_t>(band), dots.data());
            const double q_mean =
                q_stats.centred_means[static_cast<size_t>(g)];
            const WindowStats* w =
                t_stats.windows.data() + slot[static_cast<size_t>(lo)];
            for (int64_t i = 0; i < band && !v.pass; ++i) {
              const double r =
                  q.std < 1e-12 || w[i].std < 1e-12
                      ? 0.0
                      : (dots[i] - dm * q_mean * w[i].mean) /
                            (dm * q.std * w[i].std);
              v.best = std::max(v.best, std::fabs(r));
              v.pass = v.best >= accept;
            }
          }
        }
        verdicts[static_cast<size_t>(idx)] = v;
        return std::nullopt;
      });
  stats.stage2_seconds = stage2_watch.ElapsedSeconds();
  if (fs.stop.has_value()) {
    outcome.stop = fs.stop;
    return outcome;
  }

  outcome.survivors.reserve(candidate_keys.size());
  for (size_t i = 0; i < candidate_keys.size(); ++i) {
    if (!verdicts[i].pass) continue;
    PrefilterSurvivor s;
    s.a = static_cast<int>(candidate_keys[i] /
                           static_cast<uint64_t>(num_channels));
    s.b = static_cast<int>(candidate_keys[i] %
                           static_cast<uint64_t>(num_channels));
    s.best_pearson = std::min(verdicts[i].best, 1.0);
    outcome.survivors.push_back(s);
  }
  stats.stage2_survivors = static_cast<int64_t>(outcome.survivors.size());

  pairs_in->Add(stats.pairs_total);
  stage1_out->Add(stats.stage1_candidates);
  stage2_out->Add(stats.stage2_survivors);
  pruned->Add(stats.pairs_total - stats.stage2_survivors);
  runs->Add(1);
  return outcome;
}

}  // namespace tycos
