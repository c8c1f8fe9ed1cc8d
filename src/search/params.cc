#include "search/params.h"

#include <utility>
#include <vector>

namespace tycos {

Status TycosParams::Validate(int64_t series_length) const {
  const Status shape = ValidateShape();
  if (!shape.ok()) return shape;
  if (s_max > series_length) {
    return Status::InvalidArgument("s_max exceeds the series length");
  }
  if (td_max >= series_length) {
    return Status::InvalidArgument("td_max must be < series length");
  }
  return Status::Ok();
}

Status TycosParams::ValidateShape() const {
  if (sigma <= 0.0 || sigma > 1.0) {
    return Status::InvalidArgument("sigma must be in (0, 1]");
  }
  if (epsilon_ratio < 0.0 || epsilon_ratio >= 1.0) {
    return Status::InvalidArgument("epsilon_ratio must be in [0, 1)");
  }
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (s_min < k + 2) {
    return Status::InvalidArgument(
        "s_min must be >= k + 2 so the KSG estimator is defined");
  }
  if (s_min > s_max) return Status::InvalidArgument("s_min > s_max");
  if (td_max < 0) return Status::InvalidArgument("td_max must be >= 0");
  if (delta < 1) return Status::InvalidArgument("delta must be >= 1");
  if (initial_delay_step < 0) {
    return Status::InvalidArgument("initial_delay_step must be >= 0");
  }
  if (history_length < 1) {
    return Status::InvalidArgument("history_length must be >= 1");
  }
  if (max_idle < 1) return Status::InvalidArgument("max_idle must be >= 1");
  if (max_neighborhood_level < 1) {
    return Status::InvalidArgument("max_neighborhood_level must be >= 1");
  }
  if (top_k < 0) return Status::InvalidArgument("top_k must be >= 0");
  if (num_restarts < 0) {
    return Status::InvalidArgument("num_restarts must be >= 0");
  }
  if (tie_jitter < 0.0) {
    return Status::InvalidArgument("tie_jitter must be >= 0");
  }
  if (small_sample_penalty < 0.0) {
    return Status::InvalidArgument("small_sample_penalty must be >= 0");
  }
  return Status::Ok();
}

Status ValidateForSearch(const SeriesPair& pair, const TycosParams& params) {
  Status st = params.Validate(pair.size());
  if (!st.ok()) return st;
  st = pair.x().Validate();
  if (!st.ok()) return st;
  return pair.y().Validate();
}

SeriesPair PrepareForSearch(const SeriesPair& pair,
                            const TycosParams& params) {
  if (params.tie_jitter <= 0.0) return pair;
  std::vector<double> xs = pair.x().values();
  std::vector<double> ys = pair.y().values();
  internal::ApplyTieJitter(&xs, params.tie_jitter, /*salt=*/1);
  internal::ApplyTieJitter(&ys, params.tie_jitter, /*salt=*/2);
  return SeriesPair(TimeSeries(std::move(xs), pair.x().name()),
                    TimeSeries(std::move(ys), pair.y().name()));
}

}  // namespace tycos
