#include "jobs/admission.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"

namespace tycos {
namespace jobs {

namespace {

class SystemLoadProbe : public LoadProbe {
 public:
  LoadSample Sample() override {
    LoadSample s;
    s.rss_bytes = obs::ProcessRssBytes();
    return s;
  }
};

// Level along one axis: 0 below soft, 1 in [soft, mid), 2 in [mid, hard),
// 3 at or above hard. Disabled bounds (0) never trigger; with only a soft
// bound the axis degrades but never refuses, with only a hard bound it
// refuses without a degradation band.
int AxisLevel(int64_t value, int64_t soft, int64_t hard) {
  if (hard > 0 && value >= hard) return 3;
  if (soft > 0 && value >= soft) {
    if (hard > soft) {
      const int64_t mid = soft + (hard - soft) / 2;
      return value >= mid ? 2 : 1;
    }
    return 1;
  }
  return 0;
}

}  // namespace

Status ShedPolicy::Validate() const {
  const struct {
    const char* name;
    int64_t value;
  } bounds[] = {{"rss_soft_bytes", rss_soft_bytes},
                {"rss_hard_bytes", rss_hard_bytes},
                {"queue_soft", queue_soft},
                {"queue_hard", queue_hard}};
  for (const auto& b : bounds) {
    if (b.value < 0) {
      return Status::InvalidArgument(
          "ShedPolicy." + std::string(b.name) + " is negative (" +
          std::to_string(b.value) + "); use 0 to disable the bound");
    }
  }
  if (rss_soft_bytes > 0 && rss_hard_bytes > 0 &&
      rss_soft_bytes > rss_hard_bytes) {
    return Status::InvalidArgument(
        "ShedPolicy rss band is inverted: soft (" +
        std::to_string(rss_soft_bytes) + ") > hard (" +
        std::to_string(rss_hard_bytes) + "); the degradation band is empty");
  }
  if (queue_soft > 0 && queue_hard > 0 && queue_soft > queue_hard) {
    return Status::InvalidArgument(
        "ShedPolicy queue band is inverted: soft (" +
        std::to_string(queue_soft) + ") > hard (" +
        std::to_string(queue_hard) + "); the degradation band is empty");
  }
  return Status::Ok();
}

LoadProbe* LoadProbe::System() {
  static SystemLoadProbe* probe = new SystemLoadProbe;  // process lifetime
  return probe;
}

int ShedLevel(const ShedPolicy& policy, const LoadSample& sample) {
  const int rss = AxisLevel(sample.rss_bytes, policy.rss_soft_bytes,
                            policy.rss_hard_bytes);
  const int queue =
      AxisLevel(sample.queue_depth, policy.queue_soft, policy.queue_hard);
  return std::max(rss, queue);
}

TycosParams DegradeParams(const TycosParams& params, int level) {
  TycosParams p = params;
  if (level >= 1) {
    // Drop the multi-restart fan-in (the single scan is the cheap path)
    // and stop idle climbs from wandering far shells.
    p.num_restarts = 0;
    p.max_neighborhood_level = std::min(p.max_neighborhood_level, 4);
  }
  if (level >= 2) {
    p.max_idle = std::min(p.max_idle, 4);
    p.history_length = std::min(p.history_length, 3);
  }
  return p;
}

double ShedBudgetScale(int level) {
  if (level <= 0) return 1.0;
  return level == 1 ? 0.5 : 0.25;
}

std::optional<PairAdmission> Admit(const ShedPolicy& policy, LoadProbe* probe,
                                   int64_t in_flight, const TycosParams& params,
                                   int64_t own_budget, int64_t outer_budget) {
  int level = 0;
  if (policy.enabled()) {
    static obs::Gauge* rss_gauge = obs::GetGauge("process.rss_bytes");
    LoadSample sample =
        (probe != nullptr ? probe : LoadProbe::System())->Sample();
    sample.queue_depth += in_flight;
    rss_gauge->Set(sample.rss_bytes);
    level = ShedLevel(policy, sample);
    if (level >= 3) return std::nullopt;
  }
  int64_t budget = own_budget;
  if (outer_budget > 0 && (budget <= 0 || outer_budget < budget)) {
    budget = outer_budget;
  }
  if (budget > 0) {
    const double scaled =
        static_cast<double>(budget) * ShedBudgetScale(level);
    budget = std::max<int64_t>(1, static_cast<int64_t>(scaled));
  }
  PairAdmission admission;
  admission.params = DegradeParams(params, level);
  admission.shed_level = level;
  admission.evaluation_budget = budget;
  return admission;
}

}  // namespace jobs
}  // namespace tycos
