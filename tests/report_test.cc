#include "io/report.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "datagen/relations.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;
using datagen::SyntheticDataset;

struct Rendered {
  SyntheticDataset ds;
  WindowSet windows;
  TycosStats stats;
  TycosParams params;
};

Rendered MakeRun() {
  Rendered r{ComposeDataset({SegmentSpec{RelationType::kLinear, 150, 4}},
                            /*gap=*/150, /*seed=*/1),
             {},
             {},
             {}};
  r.params.sigma = 0.5;
  r.params.s_min = 24;
  r.params.s_max = 300;
  r.params.td_max = 16;
  Tycos search(r.ds.pair, r.params, TycosVariant::kLMN);
  r.windows = search.Run();
  r.stats = search.stats();
  return r;
}

TEST(RenderReportTest, ContainsAllSections) {
  const Rendered r = MakeRun();
  const std::string md =
      RenderReport(r.ds.pair, r.params, r.windows, r.stats);
  EXPECT_NE(md.find("# TYCOS correlation report"), std::string::npos);
  EXPECT_NE(md.find("## Parameters"), std::string::npos);
  EXPECT_NE(md.find("## Windows"), std::string::npos);
  EXPECT_NE(md.find("## Search statistics"), std::string::npos);
  EXPECT_NE(md.find("| sigma | 0.5 |"), std::string::npos);
}

TEST(RenderReportTest, ListsEveryWindow) {
  const Rendered r = MakeRun();
  ASSERT_FALSE(r.windows.empty());
  const std::string md =
      RenderReport(r.ds.pair, r.params, r.windows, r.stats);
  for (const Window& w : r.windows.windows()) {
    std::ostringstream cell;
    cell << "[" << w.start << ", " << w.end << "]";
    EXPECT_NE(md.find(cell.str()), std::string::npos) << cell.str();
  }
}

TEST(RenderReportTest, EmptyResultIsStated) {
  const Rendered r = MakeRun();
  const std::string md =
      RenderReport(r.ds.pair, r.params, WindowSet(), r.stats);
  EXPECT_NE(md.find("No correlated windows"), std::string::npos);
}

TEST(RenderReportTest, TimeUnitsWhenSamplingKnown) {
  const Rendered r = MakeRun();
  ReportOptions opt;
  opt.seconds_per_sample = 300.0;  // 5-minute samples
  const std::string md =
      RenderReport(r.ds.pair, r.params, r.windows, r.stats, opt);
  EXPECT_NE(md.find(" when | lag |"), std::string::npos);
  // Positions land in the hour range for this dataset (5-min samples,
  // windows starting hundreds of samples in).
  EXPECT_NE(md.find(" h "), std::string::npos);
}

// Regression: durations below one second used to fall into the "%.0f s"
// branch and render as the indistinguishable-from-zero "0 s".
TEST(RenderReportTest, SubSecondDurationsRenderAsMilliseconds) {
  const Rendered r = MakeRun();
  WindowSet ws;
  ws.Insert(Window(10, 50, 1, 0.8));
  ws.Insert(Window(100, 150, -2, 0.7));  // negative delay renders signed
  ReportOptions opt;
  opt.seconds_per_sample = 0.004;  // 4 ms samples (250 Hz)
  const std::string md =
      RenderReport(r.ds.pair, r.params, ws, r.stats, opt);
  EXPECT_NE(md.find("| 4 ms |"), std::string::npos) << md;
  EXPECT_NE(md.find("| -8 ms |"), std::string::npos) << md;
  EXPECT_NE(md.find("40 ms"), std::string::npos) << md;  // window start
  EXPECT_EQ(md.find("| 0 s |"), std::string::npos) << md;
}

TEST(RenderReportTest, ZeroDurationStillRendersAsZeroSeconds) {
  const Rendered r = MakeRun();
  WindowSet ws;
  ws.Insert(Window(0, 50, 0, 0.8));  // starts at t=0 with no lag
  ReportOptions opt;
  opt.seconds_per_sample = 0.004;
  const std::string md =
      RenderReport(r.ds.pair, r.params, ws, r.stats, opt);
  // Both the t=0 window start and the zero lag are exactly zero.
  EXPECT_NE(md.find("| 0 s – 204 ms | 0 s |"), std::string::npos) << md;
}

TEST(RenderReportTest, MetricsSectionOnlyWhenRequested) {
  const Rendered r = MakeRun();
  EXPECT_EQ(
      RenderReport(r.ds.pair, r.params, r.windows, r.stats).find("## Metrics"),
      std::string::npos);
  ReportOptions opt;
  opt.include_metrics = true;
  const std::string md =
      RenderReport(r.ds.pair, r.params, r.windows, r.stats, opt);
  EXPECT_NE(md.find("## Metrics"), std::string::npos);
  // The run above performed MI work, so the registry section is non-empty.
  EXPECT_NE(md.find("mi.evaluations"), std::string::npos);
}

TEST(RenderReportTest, RunStatusCompleted) {
  const Rendered r = MakeRun();
  const std::string md =
      RenderReport(r.ds.pair, r.params, r.windows, r.stats);
  EXPECT_NE(md.find("Run status: completed"), std::string::npos);
  EXPECT_EQ(md.find("partial"), std::string::npos);
}

TEST(RenderReportTest, RunStatusSurfacesStopReason) {
  const Rendered r = MakeRun();
  TycosStats cut = r.stats;
  cut.stop_reason = StopReason::kDeadlineExceeded;
  const std::string md = RenderReport(r.ds.pair, r.params, r.windows, cut);
  EXPECT_NE(md.find("**partial** — stopped early (deadline_exceeded)"),
            std::string::npos)
      << md;
}

// A pairwise result for the report tests: three entries with distinct
// provenance (clean, partial, shed-degraded) so every flag renders.
PairwiseResult MakePairwiseResult() {
  PairwiseResult result;
  PairwiseEntry clean;
  clean.a = 0;
  clean.b = 1;
  clean.windows.Insert(Window(10, 80, 3, 0.9));
  clean.best_score = 0.9;
  PairwiseEntry partial;
  partial.a = 0;
  partial.b = 2;
  partial.partial = true;
  PairwiseEntry shed;
  shed.a = 1;
  shed.b = 2;
  shed.shed_level = 2;
  result.entries = {clean, partial, shed};
  result.pairs_searched = 3;
  result.pairs_skipped = 0;
  return result;
}

TEST(PairwiseReportTest, ContainsStatusAndPairRows) {
  const Rendered r = MakeRun();
  const std::vector<TimeSeries> channels = {r.ds.pair.x(), r.ds.pair.y(),
                                            TimeSeries({1.0, 2.0}, "C")};
  const std::string md = RenderPairwiseReport(
      channels, r.params, MakePairwiseResult());
  EXPECT_NE(md.find("Run status: completed; 3 pairs searched, 0 skipped"),
            std::string::npos)
      << md;
  EXPECT_NE(md.find("## Pairs (3)"), std::string::npos);
  EXPECT_NE(md.find("0.900"), std::string::npos);
}

TEST(PairwiseReportTest, FlagsPartialAndShedEntries) {
  const Rendered r = MakeRun();
  const std::vector<TimeSeries> channels = {r.ds.pair.x(), r.ds.pair.y(),
                                            TimeSeries({1.0, 2.0}, "C")};
  const std::string md = RenderPairwiseReport(
      channels, r.params, MakePairwiseResult());
  EXPECT_NE(md.find("| partial |"), std::string::npos) << md;
  EXPECT_NE(md.find("| shed L2 |"), std::string::npos) << md;
  EXPECT_NE(md.find("| - |"), std::string::npos);  // the clean row
}

TEST(PairwiseReportTest, PausedRunReadsAsResumable) {
  const Rendered r = MakeRun();
  const std::vector<TimeSeries> channels = {r.ds.pair.x(), r.ds.pair.y()};
  PairwiseResult result;
  result.partial = true;
  result.stop_reason = StopReason::kPaused;
  result.pairs_searched = 0;
  result.pairs_skipped = 1;
  const std::string md = RenderPairwiseReport(channels, r.params, result);
  EXPECT_NE(md.find("**paused** — checkpointed and resumable (paused)"),
            std::string::npos)
      << md;
  EXPECT_NE(md.find("0 pairs searched, 1 skipped"), std::string::npos);
  EXPECT_NE(md.find("No pairs searched."), std::string::npos);
}

TEST(PairwiseReportTest, WritesFile) {
  const Rendered r = MakeRun();
  const std::vector<TimeSeries> channels = {r.ds.pair.x(), r.ds.pair.y(),
                                            TimeSeries({1.0, 2.0}, "C")};
  const std::string path = ::testing::TempDir() + "/tycos_pairwise.md";
  ASSERT_TRUE(
      WritePairwiseReport(path, channels, r.params, MakePairwiseResult())
          .ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("## Pairs"), std::string::npos);
  std::remove(path.c_str());
}

TEST(WriteReportTest, WritesFile) {
  const Rendered r = MakeRun();
  const std::string path = ::testing::TempDir() + "/tycos_report.md";
  ASSERT_TRUE(
      WriteReport(path, r.ds.pair, r.params, r.windows, r.stats).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("## Windows"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tycos
