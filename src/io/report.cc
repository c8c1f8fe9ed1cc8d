#include "io/report.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.h"

namespace tycos {

namespace {

// "2.5 h", "14 min", "45 s", "250 ms" — the coarsest unit that stays >= 1.
// Sub-second durations get their own branch (a 4 ms lag used to render as
// the indistinguishable-from-zero "0 s"); exactly zero stays "0 s".
std::string HumaneDuration(double seconds) {
  char buf[48];
  const double abs = std::fabs(seconds);
  if (abs >= 86400.0) {
    std::snprintf(buf, sizeof(buf), "%.1f d", seconds / 86400.0);
  } else if (abs >= 3600.0) {
    std::snprintf(buf, sizeof(buf), "%.1f h", seconds / 3600.0);
  } else if (abs >= 60.0) {
    std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60.0);
  } else if (abs >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.0f s", seconds);
  } else if (abs > 0.0) {
    std::snprintf(buf, sizeof(buf), "%.0f ms", seconds * 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "0 s");
  }
  return buf;
}

// "completed", or "**partial** — stopped early (deadline_exceeded)". The
// paused reason gets resume-oriented wording: a paused run is healthy, not
// truncated.
std::string RunStatusText(StopReason reason) {
  if (reason == StopReason::kCompleted) return "completed";
  if (reason == StopReason::kPaused) {
    return "**paused** — checkpointed and resumable (" +
           std::string(StopReasonName(reason)) + ")";
  }
  return "**partial** — stopped early (" +
         std::string(StopReasonName(reason)) + ")";
}

}  // namespace

std::string RenderReport(const SeriesPair& pair, const TycosParams& params,
                         const WindowSet& windows, const TycosStats& stats,
                         const ReportOptions& options) {
  std::ostringstream out;
  const bool timed = options.seconds_per_sample > 0.0;

  out << "# " << options.title << "\n\n";
  out << "Pair: **" << (pair.x().name().empty() ? "X" : pair.x().name())
      << "** vs **" << (pair.y().name().empty() ? "Y" : pair.y().name())
      << "** (" << pair.size() << " samples)\n\n";

  out << "Run status: " << RunStatusText(stats.stop_reason) << "\n\n";

  out << "## Parameters\n\n"
      << "| parameter | value |\n|---|---|\n"
      << "| sigma | " << params.sigma << " |\n"
      << "| s_min / s_max | " << params.s_min << " / " << params.s_max
      << " |\n"
      << "| td_max | " << params.td_max << " |\n"
      << "| epsilon ratio | " << params.epsilon_ratio << " |\n"
      << "| k | " << params.k << " |\n\n";

  out << "## Windows (" << windows.size() << ")\n\n";
  if (windows.empty()) {
    out << "No correlated windows cleared sigma.\n\n";
  } else {
    out << "| # | X range | delay | size | score |";
    if (timed) out << " when | lag |";
    out << "\n|---|---|---|---|---|";
    if (timed) out << "---|---|";
    out << "\n";
    int row = 1;
    for (const Window& w : windows.Sorted()) {
      out << "| " << row++ << " | [" << w.start << ", " << w.end << "] | "
          << w.delay << " | " << w.size() << " | ";
      char score[16];
      std::snprintf(score, sizeof(score), "%.3f", w.mi);
      out << score << " |";
      if (timed) {
        out << " "
            << HumaneDuration(static_cast<double>(w.start) *
                              options.seconds_per_sample)
            << " – "
            << HumaneDuration(static_cast<double>(w.end + 1) *
                              options.seconds_per_sample)
            << " | "
            << HumaneDuration(static_cast<double>(w.delay) *
                              options.seconds_per_sample)
            << " |";
      }
      out << "\n";
    }
    out << "\n";
  }

  out << "## Search statistics\n\n"
      << "| metric | value |\n|---|---|\n"
      << "| climbs | " << stats.climbs << " |\n"
      << "| MI evaluations | " << stats.mi_evaluations << " |\n"
      << "| cache hits | " << stats.cache_hits << " |\n"
      << "| accepted / rejected moves | " << stats.accepted_moves << " / "
      << stats.rejected_moves << " |\n"
      << "| noise-blocked directions | " << stats.noise_blocked << " |\n";
  if (options.include_metrics) {
    out << "\n## Metrics\n\n```\n" << obs::Snapshot().ToString() << "```\n";
  }
  return out.str();
}

Status WriteReport(const std::string& path, const SeriesPair& pair,
                   const TycosParams& params, const WindowSet& windows,
                   const TycosStats& stats, const ReportOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << RenderReport(pair, params, windows, stats, options);
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::Ok();
}

std::string RenderPairwiseReport(const std::vector<TimeSeries>& channels,
                                 const TycosParams& params,
                                 const PairwiseResult& result,
                                 const ReportOptions& options) {
  std::ostringstream out;
  out << "# " << options.title << "\n\n";
  out << channels.size() << " channels";
  if (!channels.empty()) out << " (" << channels[0].size() << " samples)";
  out << ", sigma " << params.sigma << "\n\n";

  out << "Run status: " << RunStatusText(result.stop_reason) << "; "
      << result.pairs_searched << " pairs searched, " << result.pairs_skipped
      << " skipped\n\n";

  out << "## Pairs (" << result.entries.size() << ")\n\n";
  if (result.entries.empty()) {
    out << "No pairs searched.\n\n";
  } else {
    out << "| # | pair | windows | best score | flags |\n"
        << "|---|---|---|---|---|\n";
    int row = 1;
    for (const PairwiseEntry& e : result.entries) {
      const std::string name_a = channels[static_cast<size_t>(e.a)].name();
      const std::string name_b = channels[static_cast<size_t>(e.b)].name();
      out << "| " << row++ << " | "
          << (name_a.empty() ? "#" + std::to_string(e.a) : name_a) << " vs "
          << (name_b.empty() ? "#" + std::to_string(e.b) : name_b) << " | "
          << e.window_count() << " | ";
      char score[16];
      std::snprintf(score, sizeof(score), "%.3f", e.best_score);
      out << score << " | ";
      // Flags keep degraded answers honest: a pair searched under overload
      // shedding or cut short is marked in the row that reports it.
      std::string flags;
      if (e.partial) flags += "partial";
      if (e.shed_level > 0) {
        if (!flags.empty()) flags += ", ";
        flags += "shed L" + std::to_string(e.shed_level);
      }
      out << (flags.empty() ? "-" : flags) << " |\n";
    }
    out << "\n";
  }
  if (options.include_metrics) {
    out << "## Metrics\n\n```\n" << obs::Snapshot().ToString() << "```\n";
  }
  return out.str();
}

Status WritePairwiseReport(const std::string& path,
                           const std::vector<TimeSeries>& channels,
                           const TycosParams& params,
                           const PairwiseResult& result,
                           const ReportOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << RenderPairwiseReport(channels, params, result, options);
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::Ok();
}

}  // namespace tycos
