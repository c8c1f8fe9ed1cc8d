#include "search/streaming.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace tycos {

namespace {

Status ValidateConfig(const TycosParams& params, int64_t effective_trigger,
                      DataPolicy policy) {
  const Status st = params.ValidateShape();
  if (!st.ok()) return st;
  if (effective_trigger < params.s_min) {
    return Status::InvalidArgument(
        "search_trigger (" + std::to_string(effective_trigger) +
        ") must be >= s_min (" + std::to_string(params.s_min) + ")");
  }
  if (policy == DataPolicy::kDropRow) {
    return Status::InvalidArgument(
        "streaming ingest takes policy reject or interpolate, not drop_row: "
        "a dropped row would shift every later stream position");
  }
  return Status::Ok();
}

int64_t EffectiveTrigger(const TycosParams& params, int64_t search_trigger) {
  return search_trigger > 0 ? search_trigger : 2 * params.s_max;
}

}  // namespace

StreamingTycos::StreamingTycos(Validated, const TycosParams& params,
                               TycosVariant variant, uint64_t seed,
                               int64_t search_trigger, DataPolicy policy)
    : params_(params),
      variant_(variant),
      seed_(seed),
      search_trigger_(EffectiveTrigger(params, search_trigger)),
      policy_(policy) {}

StreamingTycos::StreamingTycos(const TycosParams& params, TycosVariant variant,
                               uint64_t seed, int64_t search_trigger,
                               DataPolicy policy)
    : StreamingTycos(
          [&] {
            const Status st = ValidateConfig(
                params, EffectiveTrigger(params, search_trigger), policy);
            if (!st.ok()) {
              std::fprintf(stderr, "StreamingTycos: invalid config: %s\n",
                           st.ToString().c_str());
            }
            TYCOS_CHECK(st.ok());
            return Validated{};
          }(),
          params, variant, seed, search_trigger, policy) {}

Result<std::unique_ptr<StreamingTycos>> StreamingTycos::Create(
    const TycosParams& params, TycosVariant variant, uint64_t seed,
    int64_t search_trigger, DataPolicy policy) {
  const Status st = ValidateConfig(
      params, EffectiveTrigger(params, search_trigger), policy);
  if (!st.ok()) return st;
  return std::unique_ptr<StreamingTycos>(new StreamingTycos(
      Validated{}, params, variant, seed, search_trigger, policy));
}

Status StreamingTycos::Append(const std::vector<double>& xs,
                              const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument(
        "stream desynchronized: x chunk has " + std::to_string(xs.size()) +
        " samples but y chunk has " + std::to_string(ys.size()));
  }
  std::vector<double> cx = xs;
  std::vector<double> cy = ys;

  switch (policy_) {
    case DataPolicy::kDropRow:  // refused by ValidateConfig
    case DataPolicy::kReject: {
      // Scan the WHOLE chunk before failing so ingest_stats_ counts every
      // bad sample — the same accounting the batch CSV path produces via
      // SanitizeColumns — instead of stopping at the first one.
      int64_t bad = 0;
      int64_t first_bad = -1;
      for (size_t i = 0; i < cx.size(); ++i) {
        const int64_t row_bad = (std::isfinite(cx[i]) ? 0 : 1) +
                                (std::isfinite(cy[i]) ? 0 : 1);
        if (row_bad == 0) continue;
        bad += row_bad;
        if (first_bad < 0) first_bad = static_cast<int64_t>(i);
      }
      if (bad > 0) {
        ingest_stats_.non_finite += bad;
        return Status::InvalidArgument(
            "non-finite sample at stream position " +
            std::to_string(samples_seen_ + first_bad) + " (" +
            std::to_string(bad) + " non-finite in chunk; policy: reject); " +
            "chunk not buffered");
      }
      break;
    }
    case DataPolicy::kInterpolate: {
      // Use the last buffered sample as left context so a gap at the chunk
      // boundary interpolates from real data instead of clamping. A
      // trailing non-finite run still clamps to the last finite value: the
      // stream cannot wait for a right neighbour that hasn't arrived.
      const bool ctx = !buffer_x_.empty();
      if (ctx) {
        cx.insert(cx.begin(), buffer_x_.back());
        cy.insert(cy.begin(), buffer_y_.back());
      }
      Status st = SanitizeValues(&cx, policy_, &ingest_stats_);
      if (st.ok()) st = SanitizeValues(&cy, policy_, &ingest_stats_);
      if (!st.ok()) {
        return Status::InvalidArgument(
            st.message() + " (chunk at stream position " +
            std::to_string(samples_seen_) + " has no finite sample to " +
            "interpolate from)");
      }
      if (ctx) {
        cx.erase(cx.begin());
        cy.erase(cy.begin());
      }
      break;
    }
  }

  buffer_x_.insert(buffer_x_.end(), cx.begin(), cx.end());
  buffer_y_.insert(buffer_y_.end(), cy.begin(), cy.end());
  samples_seen_ += static_cast<int64_t>(cx.size());
  return MaybeSearch(/*force=*/false);
}

Status StreamingTycos::Flush() { return MaybeSearch(/*force=*/true); }

Status StreamingTycos::MaybeSearch(bool force) {
  const int64_t unsearched = samples_seen_ - searched_until_;
  if (unsearched < params_.s_min) return Status::Ok();
  if (!force && unsearched < search_trigger_) return Status::Ok();

  // Windows may straddle the previous search boundary by up to s_max
  // samples and reach a further td_max into already-searched data on Y, so
  // the pass rescans that margin.
  const int64_t margin = params_.s_max + params_.td_max;
  const int64_t from = std::max<int64_t>(offset_, searched_until_ - margin);

  // Drop everything before `from`: no future window can touch it.
  const int64_t drop = from - offset_;
  if (drop > 0) {
    buffer_x_.erase(buffer_x_.begin(), buffer_x_.begin() + drop);
    buffer_y_.erase(buffer_y_.begin(), buffer_y_.begin() + drop);
    offset_ = from;
  }

  if (static_cast<int64_t>(buffer_x_.size()) < params_.s_min) {
    return Status::Ok();
  }

  // The chunk may be shorter than the configured window ceiling; clamp the
  // per-pass params so Validate holds on small tails.
  TycosParams pass = params_;
  const int64_t n = static_cast<int64_t>(buffer_x_.size());
  pass.s_max = std::min(pass.s_max, n);
  pass.td_max = std::min(pass.td_max, n - 1);
  if (pass.s_min > pass.s_max) return Status::Ok();

  const SeriesPair pair{TimeSeries(buffer_x_), TimeSeries(buffer_y_)};
  Result<std::unique_ptr<Tycos>> search = Tycos::Create(
      pair, pass, variant_, seed_ + static_cast<uint64_t>(search_passes_));
  if (!search.ok()) return search.status();
  const RunContext& ctx =
      run_context_ != nullptr ? *run_context_ : RunContext::None();
  Result<SearchOutcome> outcome = search.value()->Run(ctx);
  if (!outcome.ok()) return outcome.status();
  ++search_passes_;
  last_pass_partial_ = outcome.value().partial;
  last_stop_reason_ = outcome.value().stop_reason;

  for (Window w : outcome.value().windows.windows()) {
    // Back to global stream coordinates.
    w.start += offset_;
    w.end += offset_;
    // Windows that end strictly inside the previously searched region were
    // discoverable by an earlier pass; skipping them avoids flooding the
    // result set with near-duplicates from the rescan margin.
    if (w.end < searched_until_) continue;
    results_.Insert(w);
  }
  // Even after a partial pass the searched cursor advances: the stream
  // moves on, and last_pass_partial()/last_stop_reason() report the gap.
  searched_until_ = samples_seen_;
  return Status::Ok();
}

}  // namespace tycos
