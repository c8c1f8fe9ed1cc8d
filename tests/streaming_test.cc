#include "search/streaming.h"

#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/window_similarity.h"
#include "datagen/relations.h"
#include "io/csv.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;
using datagen::SyntheticDataset;

TycosParams Params() {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 24;
  p.s_max = 300;
  p.td_max = 16;
  return p;
}

// Feeds the pair to a StreamingTycos in chunks of `chunk` samples.
StreamingTycos StreamAll(const SeriesPair& pair, int64_t chunk,
                         const TycosParams& params) {
  StreamingTycos stream(params, TycosVariant::kLMN);
  const auto& xs = pair.x().values();
  const auto& ys = pair.y().values();
  for (size_t at = 0; at < xs.size(); at += static_cast<size_t>(chunk)) {
    const size_t end = std::min(xs.size(), at + static_cast<size_t>(chunk));
    const Status s = stream.Append({xs.begin() + at, xs.begin() + end},
                                   {ys.begin() + at, ys.begin() + end});
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  const Status s = stream.Flush();
  EXPECT_TRUE(s.ok()) << s.ToString();
  return stream;
}

TEST(StreamingTycosTest, FindsRelationsAcrossChunkBoundaries) {
  // Two planted relations; chunk size chosen so the first straddles a
  // boundary.
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 200, 4},
       SegmentSpec{RelationType::kSine, 200, 10}},
      /*gap=*/250, /*seed=*/1);
  StreamingTycos stream = StreamAll(ds.pair, 300, Params());
  EXPECT_EQ(stream.samples_seen(), ds.pair.size());
  for (const auto& planted : ds.planted) {
    bool covered = false;
    for (const Window& w : stream.results().windows()) {
      covered |= IndexJaccard(w, planted.AsWindow()) > 0.25;
    }
    EXPECT_TRUE(covered) << datagen::RelationTypeName(planted.type);
  }
}

TEST(StreamingTycosTest, MatchesBatchSearchCoverage) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kQuadratic, 200, 8},
       SegmentSpec{RelationType::kCross, 200, 0}},
      /*gap=*/300, /*seed=*/2);
  const WindowSet batch = Tycos(ds.pair, Params(), TycosVariant::kLMN).Run();
  StreamingTycos stream = StreamAll(ds.pair, 400, Params());
  ASSERT_FALSE(batch.empty());
  // The streamed result must cover what the batch search covers.
  EXPECT_GE(CoverageRecallPercent(batch.windows(),
                                  stream.results().windows()),
            50.0);
}

TEST(StreamingTycosTest, RestartPassesAreThreadCountInvariant) {
  // Each pass runs one engine; with restarts its units fan across
  // num_threads executors and merge in unit order.
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 200, 4},
       SegmentSpec{RelationType::kSine, 200, 10}},
      /*gap=*/250, /*seed=*/4);
  TycosParams one = Params();
  one.num_restarts = 3;
  one.num_threads = 1;
  TycosParams four = one;
  four.num_threads = 4;
  StreamingTycos a = StreamAll(ds.pair, 300, one);
  StreamingTycos b = StreamAll(ds.pair, 300, four);
  EXPECT_EQ(a.search_passes(), b.search_passes());
  const auto& got = b.results().windows();
  const auto& want = a.results().windows();
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].start, want[i].start);
    EXPECT_EQ(got[i].end, want[i].end);
    EXPECT_EQ(got[i].delay, want[i].delay);
    EXPECT_EQ(got[i].mi, want[i].mi);
  }
}

TEST(StreamingTycosTest, MemoryStaysBounded) {
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kLinear, 150, 0},
       SegmentSpec{RelationType::kSine, 150, 0},
       SegmentSpec{RelationType::kQuadratic, 150, 0},
       SegmentSpec{RelationType::kCross, 150, 0}},
      /*gap=*/400, /*seed=*/3);
  const TycosParams p = Params();
  StreamingTycos stream = StreamAll(ds.pair, 200, p);
  // Retained tail never exceeds margin (s_max + td_max) + trigger + chunk.
  EXPECT_LE(stream.retained_samples(),
            p.s_max + p.td_max + 2 * p.s_max + 200);
  EXPECT_GT(stream.search_passes(), 2);
}

TEST(StreamingTycosTest, PureNoiseStreamYieldsNothing) {
  const SyntheticDataset ds =
      ComposeDataset({SegmentSpec{RelationType::kIndependent, 1200, 0}},
                     /*gap=*/100, /*seed=*/4);
  StreamingTycos stream = StreamAll(ds.pair, 250, Params());
  EXPECT_TRUE(stream.results().empty());
}

TEST(StreamingTycosTest, FlushHandlesShortTail) {
  StreamingTycos stream(Params(), TycosVariant::kLMN);
  std::vector<double> xs(10, 0.5), ys(10, 0.25);
  ASSERT_TRUE(stream.Append(xs, ys).ok());  // below s_min: nothing searchable
  ASSERT_TRUE(stream.Flush().ok());
  EXPECT_TRUE(stream.results().empty());
  EXPECT_EQ(stream.samples_seen(), 10);
}

TEST(StreamingTycosTest, MismatchedAppendIsAnErrorAndBuffersNothing) {
  StreamingTycos stream(Params(), TycosVariant::kLMN);
  std::vector<double> xs(20, 0.5), ys(19, 0.25);
  const Status s = stream.Append(xs, ys);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("desynchronized"), std::string::npos);
  // Nothing from the bad chunk was buffered; the stream stays usable.
  EXPECT_EQ(stream.samples_seen(), 0);
  ys.push_back(0.25);
  EXPECT_TRUE(stream.Append(xs, ys).ok());
  EXPECT_EQ(stream.samples_seen(), 20);
}

TEST(StreamingTycosTest, CreateRejectsBadConfiguration) {
  // Trigger below s_min would search unsearchable buffers forever.
  const auto r = StreamingTycos::Create(Params(), TycosVariant::kLMN,
                                        /*seed=*/42, /*search_trigger=*/10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  // Dropping a row would shift every later sample's stream position.
  const auto drop = StreamingTycos::Create(Params(), TycosVariant::kLMN,
                                           /*seed=*/42, /*search_trigger=*/0,
                                           DataPolicy::kDropRow);
  ASSERT_FALSE(drop.ok());
  EXPECT_EQ(drop.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(drop.status().message().find("drop_row"), std::string::npos)
      << drop.status().ToString();

  const auto ok = StreamingTycos::Create(Params(), TycosVariant::kLMN);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ((*ok)->samples_seen(), 0);
}

// Under kReject the whole chunk is scanned before the error returns, so
// the stats account for every bad sample — the same numbers the batch CSV
// path reports for the same data.
TEST(StreamingTycosTest, RejectStatsMatchBatchCsvAccounting) {
  auto r = StreamingTycos::Create(Params(), TycosVariant::kLMN, /*seed=*/42,
                                  /*search_trigger=*/0, DataPolicy::kReject);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  std::vector<double> xs(20, 0.5), ys(20, 0.25);
  xs[3] = std::numeric_limits<double>::quiet_NaN();
  xs[11] = std::numeric_limits<double>::infinity();
  ys[11] = std::numeric_limits<double>::quiet_NaN();  // row 11: both sides
  ys[17] = -std::numeric_limits<double>::infinity();
  const Status st = (*r)->Append(xs, ys);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // Every bad value counted (row 11 counts twice), first position named.
  EXPECT_EQ((*r)->ingest_stats().non_finite, 4);
  EXPECT_NE(st.message().find("position 3"), std::string::npos)
      << st.ToString();
  EXPECT_EQ((*r)->samples_seen(), 0);  // nothing buffered

  // Batch parity: the same rows through the CSV ingest path.
  std::string csv;
  for (size_t i = 0; i < xs.size(); ++i) {
    csv += (std::isfinite(xs[i]) ? std::to_string(xs[i]) : "nan") + "," +
           (std::isfinite(ys[i]) ? std::to_string(ys[i]) : "nan") + "\n";
  }
  SanitizeStats batch;
  const auto parsed =
      ParseCsv(csv, /*has_header=*/false, DataPolicy::kReject, &batch);
  EXPECT_FALSE(parsed.ok());
  EXPECT_EQ(batch.non_finite, (*r)->ingest_stats().non_finite);
}

TEST(StreamingTycosTest, ResultsAreInGlobalCoordinates) {
  // Single relation late in the stream: its window's global indices must
  // land on the planted location even though the buffer was trimmed.
  const SyntheticDataset ds = ComposeDataset(
      {SegmentSpec{RelationType::kIndependent, 900, 0},
       SegmentSpec{RelationType::kLinear, 200, 0}},
      /*gap=*/150, /*seed=*/5);
  StreamingTycos stream = StreamAll(ds.pair, 300, Params());
  const Window truth = ds.planted[1].AsWindow();
  bool covered = false;
  for (const Window& w : stream.results().windows()) {
    covered |= IndexJaccard(w, truth) > 0.25;
    EXPECT_GE(w.start, 0);
    EXPECT_LT(w.end, ds.pair.size());
  }
  EXPECT_TRUE(covered);
}

}  // namespace
}  // namespace tycos
