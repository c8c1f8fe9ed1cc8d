// Tests for the durable-job layer: checkpoint format round trips and
// corruption handling, the per-unit watchdog and failure ledger, the
// overload-shedding ladder, and the headline property — a run interrupted
// at ANY pair boundary and resumed, at any thread count, produces results
// bit-identical to an uninterrupted run.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/relations.h"
#include "jobs/admission.h"
#include "jobs/checkpoint.h"
#include "jobs/durable_pairwise.h"
#include "obs/metrics.h"
#include "search/pairwise.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;
using jobs::CheckpointData;
using jobs::CheckpointedPair;
using jobs::CheckpointWriter;
using jobs::DurableJobOptions;
using jobs::DurableOutcome;
using jobs::LoadCheckpoint;
using jobs::ResumePairwiseSearch;

// Three channels: A and B share a planted relation, C is independent noise.
std::vector<TimeSeries> MakeChannels(uint64_t seed) {
  const auto ds = ComposeDataset(
      {SegmentSpec{RelationType::kSine, 200, 8}}, /*gap=*/200, seed);
  Rng rng(seed + 99);
  std::vector<double> c(static_cast<size_t>(ds.pair.size()));
  for (double& v : c) v = rng.Normal();
  return {ds.pair.x(), ds.pair.y(), TimeSeries(std::move(c), "C")};
}

TycosParams Params() {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 24;
  p.s_max = 300;
  p.td_max = 16;
  return p;
}

// A throwaway checkpoint path, removed up front so a previous run's file
// never leaks into this one.
std::string TempCheckpoint(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name + ".ckpt";
  std::remove(path.c_str());
  return path;
}

CheckpointWriter::Options WriterOptions() {
  CheckpointWriter::Options o;
  o.identity.config_hash = 111;
  o.identity.data_fingerprint = 222;
  o.identity.seed = 42;
  o.identity.num_channels = 4;
  o.identity.series_length = 500;
  return o;
}

CheckpointedPair MakePair(int a, int b, double score) {
  CheckpointedPair p;
  p.entry.a = a;
  p.entry.b = b;
  p.entry.best_score = score;
  p.entry.shed_level = 1;
  p.entry.windows.Insert(Window(10, 90, -3, score));
  p.entry.windows.Insert(Window(200, 260, 5, score / 2));
  return p;
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class FakeProbe : public jobs::LoadProbe {
 public:
  explicit FakeProbe(int64_t rss) : rss_(rss) {}
  jobs::LoadSample Sample() override {
    jobs::LoadSample s;
    s.rss_bytes = rss_;
    return s;
  }

 private:
  int64_t rss_;
};

void ExpectBitIdentical(const PairwiseResult& got,
                        const PairwiseResult& want) {
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (size_t i = 0; i < got.entries.size(); ++i) {
    const PairwiseEntry& g = got.entries[i];
    const PairwiseEntry& w = want.entries[i];
    EXPECT_EQ(g.a, w.a) << "entry " << i;
    EXPECT_EQ(g.b, w.b) << "entry " << i;
    EXPECT_EQ(g.best_score, w.best_score) << "entry " << i;  // bit-exact
    EXPECT_EQ(g.partial, w.partial) << "entry " << i;
    ASSERT_EQ(g.windows.size(), w.windows.size()) << "entry " << i;
    const std::vector<Window>& gw = g.windows.windows();
    const std::vector<Window>& ww = w.windows.windows();
    for (size_t j = 0; j < gw.size(); ++j) {
      EXPECT_EQ(gw[j].start, ww[j].start);
      EXPECT_EQ(gw[j].end, ww[j].end);
      EXPECT_EQ(gw[j].delay, ww[j].delay);
      EXPECT_EQ(gw[j].mi, ww[j].mi);  // bit-exact
    }
  }
  EXPECT_EQ(got.pairs_searched, want.pairs_searched);
  EXPECT_EQ(got.pairs_skipped, want.pairs_skipped);
}

// --- Checkpoint format ------------------------------------------------------

TEST(CheckpointTest, RoundTripsRecordsBitExactly) {
  const std::string path = TempCheckpoint("roundtrip");
  const CheckpointedPair p1 = MakePair(0, 1, 0.875);
  const CheckpointedPair p2 = MakePair(2, 3, 1.0 / 3.0);  // inexact double
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    ASSERT_TRUE(writer.value().Append(p1).ok());
    ASSERT_TRUE(writer.value().Append(p2).ok());
    EXPECT_EQ(writer.value().records_written(), 2);
    EXPECT_GT(writer.value().bytes_written(), 0);
    ASSERT_TRUE(writer.value().Close().ok());
  }
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const CheckpointData& data = loaded.value();
  EXPECT_EQ(data.identity.config_hash, 111u);
  EXPECT_EQ(data.identity.data_fingerprint, 222u);
  EXPECT_EQ(data.identity.seed, 42u);
  EXPECT_EQ(data.identity.num_channels, 4u);
  EXPECT_EQ(data.identity.series_length, 500);
  EXPECT_EQ(data.dropped_tail_bytes, 0);
  ASSERT_EQ(data.pairs.size(), 2u);
  EXPECT_EQ(data.pairs[0].entry.a, 0);
  EXPECT_EQ(data.pairs[0].entry.b, 1);
  EXPECT_EQ(data.pairs[0].entry.best_score, 0.875);  // bit-exact
  EXPECT_EQ(data.pairs[0].entry.shed_level, 1);
  EXPECT_EQ(data.pairs[1].entry.best_score, 1.0 / 3.0);
  ASSERT_EQ(data.pairs[1].entry.windows.size(), 2u);
  EXPECT_EQ(data.pairs[1].entry.windows.windows()[0].delay, -3);
  EXPECT_EQ(data.pairs[1].entry.windows.windows()[0].mi, 1.0 / 3.0);
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  auto loaded = LoadCheckpoint(::testing::TempDir() + "/no_such.ckpt");
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, TruncatedHeaderRejected) {
  const std::string path = TempCheckpoint("trunc_header");
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes.resize(bytes.size() / 2);
  WriteAll(path, bytes);
  EXPECT_EQ(LoadCheckpoint(path).status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(CheckpointTest, BadMagicRejected) {
  const std::string path = TempCheckpoint("bad_magic");
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[0] ^= 0xFF;
  WriteAll(path, bytes);
  const Status st = LoadCheckpoint(path).status();
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("magic"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointTest, VersionMismatchRejected) {
  const std::string path = TempCheckpoint("bad_version");
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[8] = 0xEE;  // format version lives right after the 8-byte magic
  WriteAll(path, bytes);
  const Status st = LoadCheckpoint(path).status();
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointTest, CorruptHeaderChecksumRejected) {
  const std::string path = TempCheckpoint("bad_header_crc");
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[20] ^= 0x01;  // inside config_hash
  WriteAll(path, bytes);
  const Status st = LoadCheckpoint(path).status();
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointTest, InteriorCorruptionRejectsWholeFile) {
  const std::string path = TempCheckpoint("interior");
  size_t header_size = 0;
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok());
    header_size = ReadAll(path).size();
    ASSERT_TRUE(writer.value().Append(MakePair(0, 1, 0.5)).ok());
    ASSERT_TRUE(writer.value().Append(MakePair(0, 2, 0.25)).ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[header_size + 6] ^= 0x10;  // inside the FIRST record's payload
  WriteAll(path, bytes);
  const Status st = LoadCheckpoint(path).status();
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.message().find("interior"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TornTrailingRecordIsDropped) {
  const std::string path = TempCheckpoint("torn");
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Append(MakePair(0, 1, 0.5)).ok());
    ASSERT_TRUE(writer.value().Append(MakePair(0, 2, 0.25)).ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes.resize(bytes.size() - 5);  // SIGKILL mid-append of the second record
  WriteAll(path, bytes);
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded.value().pairs.size(), 1u);
  EXPECT_EQ(loaded.value().pairs[0].entry.b, 1);
  EXPECT_GT(loaded.value().dropped_tail_bytes, 0);
  std::remove(path.c_str());
}

TEST(CheckpointTest, CorruptLastRecordTreatedAsTornTail) {
  const std::string path = TempCheckpoint("torn_crc");
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Append(MakePair(0, 1, 0.5)).ok());
    ASSERT_TRUE(writer.value().Append(MakePair(0, 2, 0.25)).ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[bytes.size() - 10] ^= 0x40;  // partial persist of the last record
  WriteAll(path, bytes);
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded.value().pairs.size(), 1u);
  EXPECT_GT(loaded.value().dropped_tail_bytes, 0);
  std::remove(path.c_str());
}

TEST(CheckpointTest, OpenCutsTornTailBeforeAppending) {
  const std::string path = TempCheckpoint("torn_append");
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Append(MakePair(0, 1, 0.5)).ok());
    ASSERT_TRUE(writer.value().Append(MakePair(0, 2, 0.25)).ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes.resize(bytes.size() - 5);  // SIGKILL mid-append of the second record
  WriteAll(path, bytes);
  // Reopening for append must truncate the torn tail first; otherwise the
  // next record lands after the garbage and the tail reads back as
  // interior corruption, making the checkpoint permanently unloadable.
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    ASSERT_TRUE(writer.value().Append(MakePair(1, 2, 0.75)).ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().dropped_tail_bytes, 0);
  ASSERT_EQ(loaded.value().pairs.size(), 2u);
  EXPECT_EQ(loaded.value().pairs[0].entry.b, 1);
  EXPECT_EQ(loaded.value().pairs[1].entry.a, 1);
  EXPECT_EQ(loaded.value().pairs[1].entry.best_score, 0.75);
  std::remove(path.c_str());
}

TEST(CheckpointTest, OpenCutsChecksumFailingTailBeforeAppending) {
  const std::string path = TempCheckpoint("torn_crc_append");
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Append(MakePair(0, 1, 0.5)).ok());
    ASSERT_TRUE(writer.value().Append(MakePair(0, 2, 0.25)).ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  std::vector<uint8_t> bytes = ReadAll(path);
  bytes[bytes.size() - 10] ^= 0x40;  // partial persist of the last record
  WriteAll(path, bytes);
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok()) << writer.status().message();
    ASSERT_TRUE(writer.value().Append(MakePair(1, 2, 0.75)).ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().dropped_tail_bytes, 0);
  ASSERT_EQ(loaded.value().pairs.size(), 2u);
  std::remove(path.c_str());
}

TEST(CheckpointTest, UnreadablePathIsAnErrorNotRecreated) {
  // A path whose parent component is a regular file fails to open with
  // ENOTDIR, not ENOENT. Any such non-absent failure must surface as
  // IoError — falling through to the fresh-file path would atomically
  // replace an existing checkpoint with an empty header.
  const std::string parent = TempCheckpoint("not_a_dir");
  {
    auto writer = CheckpointWriter::Open(parent, WriterOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  const std::string nested = parent + "/nested.ckpt";
  const Status open_st = CheckpointWriter::Open(nested, WriterOptions())
                             .status();
  EXPECT_EQ(open_st.code(), StatusCode::kIoError);
  EXPECT_NE(open_st.message().find("cannot open checkpoint"),
            std::string::npos);
  EXPECT_EQ(LoadCheckpoint(nested).status().code(), StatusCode::kIoError);
  std::remove(parent.c_str());
}

TEST(CheckpointTest, OpenRejectsMismatchedRun) {
  const std::string path = TempCheckpoint("mismatch");
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  CheckpointWriter::Options other = WriterOptions();
  other.identity.seed = 43;
  const Status st = CheckpointWriter::Open(path, other).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("different run"), std::string::npos);

  // Every identity field binds the file on its own, the shape included:
  // neither hash covers the channel count or the series length.
  using Change = void (*)(jobs::RunIdentity*);
  const std::vector<std::pair<std::string, Change>> changes = {
      {"config hash", [](jobs::RunIdentity* id) { id->config_hash = 112; }},
      {"data fingerprint",
       [](jobs::RunIdentity* id) { id->data_fingerprint = 223; }},
      {"seed", [](jobs::RunIdentity* id) { id->seed = 43; }},
      {"channel count", [](jobs::RunIdentity* id) { id->num_channels = 5; }},
      {"series length",
       [](jobs::RunIdentity* id) { id->series_length = 501; }},
  };
  for (const auto& [field, change] : changes) {
    CheckpointWriter::Options changed = WriterOptions();
    change(&changed.identity);
    const Status row = CheckpointWriter::Open(path, changed).status();
    EXPECT_EQ(row.code(), StatusCode::kInvalidArgument) << field;
    EXPECT_NE(row.message().find("different run"), std::string::npos)
        << field << ": " << row.message();
    EXPECT_NE(row.message().find(field), std::string::npos) << row.message();
  }
  // The refusals left the file alone: its own run still opens it.
  EXPECT_TRUE(CheckpointWriter::Open(path, WriterOptions()).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, AppendAfterCloseFails) {
  const std::string path = TempCheckpoint("closed");
  auto writer = CheckpointWriter::Open(path, WriterOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value().Close().ok());
  EXPECT_FALSE(writer.value().Append(MakePair(0, 1, 0.5)).ok());
  std::remove(path.c_str());
}

TEST(CheckpointTest, DuplicatePairFirstRecordWins) {
  const std::string path = TempCheckpoint("dupe");
  {
    auto writer = CheckpointWriter::Open(path, WriterOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value().Append(MakePair(0, 1, 0.5)).ok());
    ASSERT_TRUE(writer.value().Append(MakePair(0, 1, 0.9)).ok());
    ASSERT_TRUE(writer.value().Close().ok());
  }
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().pairs.size(), 1u);
  EXPECT_EQ(loaded.value().pairs[0].entry.best_score, 0.5);
  std::remove(path.c_str());
}

TEST(CheckpointTest, FingerprintSensitiveToDataAndNames) {
  const std::vector<TimeSeries> a = MakeChannels(1);
  const uint64_t base = jobs::FingerprintChannels(a);
  EXPECT_EQ(base, jobs::FingerprintChannels(MakeChannels(1)));
  EXPECT_NE(base, jobs::FingerprintChannels(MakeChannels(2)));

  std::vector<TimeSeries> renamed = a;
  renamed[2] = TimeSeries(std::vector<double>(a[2].values()), "renamed");
  EXPECT_NE(base, jobs::FingerprintChannels(renamed));

  std::vector<double> tweaked(a[2].values());
  tweaked[7] += 1e-9;
  std::vector<TimeSeries> changed = a;
  changed[2] = TimeSeries(std::move(tweaked), "C");
  EXPECT_NE(base, jobs::FingerprintChannels(changed));
}

TEST(CheckpointTest, ConfigHashCoversKnobsButNotThreads) {
  const TycosParams p = Params();
  const uint64_t base = jobs::HashSearchConfig(p, TycosVariant::kLMN, 42);
  EXPECT_EQ(base, jobs::HashSearchConfig(p, TycosVariant::kLMN, 42));
  EXPECT_NE(base, jobs::HashSearchConfig(p, TycosVariant::kLMN, 43));
  EXPECT_NE(base, jobs::HashSearchConfig(p, TycosVariant::kLM, 42));
  TycosParams sigma = p;
  sigma.sigma = 0.6;
  EXPECT_NE(base, jobs::HashSearchConfig(sigma, TycosVariant::kLMN, 42));
  // Results are thread-count invariant, so a checkpoint written at 8
  // threads must resume at 1: num_threads is excluded from the hash.
  TycosParams threads = p;
  threads.num_threads = 8;
  EXPECT_EQ(base, jobs::HashSearchConfig(threads, TycosVariant::kLMN, 42));
}

// Every checkpoint and survivor list carries these hashes, so a reordered or
// dropped field would make every existing file fail with "written by a
// different run". The values are pinned across builds (recorded on x86-64).
TEST(CheckpointTest, ConfigHashesArePinned) {
  EXPECT_EQ(jobs::HashSearchConfig(TycosParams{}, TycosVariant::kLMN, 42),
            0xeeb64641d2bfd946ULL);
  PrefilterParams f;
  f.td_max = 16;
  EXPECT_EQ(
      jobs::HashPrefilterConfig(TycosParams{}, TycosVariant::kLMN, 42, f),
      0xa3a754f9e1d1d0c5ULL);
}

TEST(AdmissionTest, ShedLadderBands) {
  jobs::ShedPolicy policy;
  policy.rss_soft_bytes = 100;
  policy.rss_hard_bytes = 200;  // midpoint 150
  const auto level = [&](int64_t rss) {
    jobs::LoadSample s;
    s.rss_bytes = rss;
    return jobs::ShedLevel(policy, s);
  };
  EXPECT_EQ(level(0), 0);
  EXPECT_EQ(level(99), 0);
  EXPECT_EQ(level(100), 1);
  EXPECT_EQ(level(149), 1);
  EXPECT_EQ(level(150), 2);
  EXPECT_EQ(level(199), 2);
  EXPECT_EQ(level(200), 3);
}

TEST(AdmissionTest, WorstAxisWins) {
  jobs::ShedPolicy policy;
  policy.rss_soft_bytes = 100;
  policy.rss_hard_bytes = 200;
  policy.queue_soft = 4;
  policy.queue_hard = 8;
  jobs::LoadSample s;
  s.rss_bytes = 50;  // level 0
  s.queue_depth = 9;  // level 3
  EXPECT_EQ(jobs::ShedLevel(policy, s), 3);
}

TEST(AdmissionTest, DisabledPolicyNeverSheds) {
  const jobs::ShedPolicy policy;
  EXPECT_FALSE(policy.enabled());
  jobs::LoadSample s;
  s.rss_bytes = 1 << 30;
  s.queue_depth = 1000;
  EXPECT_EQ(jobs::ShedLevel(policy, s), 0);
}

TEST(AdmissionTest, ValidateAcceptsWellFormedLadders) {
  jobs::ShedPolicy policy;  // disabled: everything at 0
  EXPECT_TRUE(policy.Validate().ok());
  policy.rss_soft_bytes = 100;
  policy.rss_hard_bytes = 200;
  policy.queue_soft = 4;
  policy.queue_hard = 8;
  EXPECT_TRUE(policy.Validate().ok());
  // soft == hard is a deliberate no-degrade cliff, not a misconfiguration.
  policy.queue_soft = 8;
  EXPECT_TRUE(policy.Validate().ok());
  // Soft-only (degrade, never refuse) and hard-only (refuse, no band) axes
  // are both legitimate shapes.
  jobs::ShedPolicy soft_only;
  soft_only.rss_soft_bytes = 100;
  EXPECT_TRUE(soft_only.Validate().ok());
  jobs::ShedPolicy hard_only;
  hard_only.queue_hard = 8;
  EXPECT_TRUE(hard_only.Validate().ok());
}

TEST(AdmissionTest, ValidateRejectsInvertedBands) {
  // soft > hard silently skipped the 1–2 degradation band pre-validation:
  // AxisLevel jumped straight from full fidelity to refusal.
  jobs::ShedPolicy rss;
  rss.rss_soft_bytes = 200;
  rss.rss_hard_bytes = 100;
  EXPECT_EQ(rss.Validate().code(), StatusCode::kInvalidArgument);
  jobs::ShedPolicy queue;
  queue.queue_soft = 9;
  queue.queue_hard = 8;
  EXPECT_EQ(queue.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(AdmissionTest, ValidateRejectsNegativeBounds) {
  for (int field = 0; field < 4; ++field) {
    jobs::ShedPolicy policy;
    (field == 0   ? policy.rss_soft_bytes
     : field == 1 ? policy.rss_hard_bytes
     : field == 2 ? policy.queue_soft
                  : policy.queue_hard) = -1;
    EXPECT_EQ(policy.Validate().code(), StatusCode::kInvalidArgument)
        << "field " << field;
  }
}

TEST(DurablePairwiseTest, RejectsMisconfiguredShedPolicy) {
  const auto channels = MakeChannels(1);
  DurableJobOptions opts;
  opts.checkpoint_path = TempCheckpoint("badshed");
  opts.shed.queue_soft = 10;
  opts.shed.queue_hard = 5;  // inverted band
  const auto r = ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN,
                                      42, RunContext::None(), opts);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(opts.checkpoint_path.c_str());
}

// Runs both durable entry points with `opts` (checkpoint path filled in)
// and expects InvalidArgument naming `field`, before any checkpoint exists.
void ExpectRejected(DurableJobOptions opts, const std::string& field) {
  const auto channels = MakeChannels(1);
  opts.checkpoint_path = TempCheckpoint("invalid_" + field);
  const auto r = ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN,
                                      42, RunContext::None(), opts);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(field), std::string::npos)
      << r.status().message();
  jobs::AllPairsJobOptions all;
  all.durable = opts;
  const auto ar = jobs::ResumeAllPairsSearch(
      channels, Params(), TycosVariant::kLMN, 42, RunContext::None(), all);
  EXPECT_EQ(ar.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(LoadCheckpoint(opts.checkpoint_path).status().code(),
            StatusCode::kNotFound);
}

TEST(DurablePairwiseTest, DefaultOptionsAreValid) {
  DurableJobOptions opts;
  opts.checkpoint_path = "unused.ckpt";
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(DurablePairwiseTest, RejectsNegativeMaxPairsThisRun) {
  DurableJobOptions opts;
  opts.max_pairs_this_run = -1;
  ExpectRejected(opts, "max_pairs_this_run");
}

TEST(DurablePairwiseTest, RejectsNegativePairEvaluationBudget) {
  DurableJobOptions opts;
  opts.pair_evaluation_budget = -5;
  ExpectRejected(opts, "pair_evaluation_budget");
}

TEST(DurablePairwiseTest, RejectsNegativePairTimeSlice) {
  DurableJobOptions opts;
  opts.pair_time_slice_s = -0.5;
  ExpectRejected(opts, "pair_time_slice_s");
}

TEST(DurablePairwiseTest, RejectsNanPairTimeSlice) {
  DurableJobOptions opts;
  opts.pair_time_slice_s = std::numeric_limits<double>::quiet_NaN();
  ExpectRejected(opts, "pair_time_slice_s");
}

TEST(AdmissionTest, DegradeParamsLadderIsDeterministic) {
  const TycosParams p = Params();
  const TycosParams l0 = jobs::DegradeParams(p, 0);
  EXPECT_EQ(l0.num_restarts, p.num_restarts);
  const TycosParams l1 = jobs::DegradeParams(p, 1);
  EXPECT_EQ(l1.num_restarts, 0);
  EXPECT_LE(l1.max_neighborhood_level, 4);
  EXPECT_EQ(l1.max_idle, p.max_idle);
  const TycosParams l2 = jobs::DegradeParams(p, 2);
  EXPECT_LE(l2.max_idle, 4);
  EXPECT_LE(l2.history_length, 3);
  EXPECT_EQ(l2.num_restarts, jobs::DegradeParams(p, 2).num_restarts);
  EXPECT_EQ(jobs::ShedBudgetScale(0), 1.0);
  EXPECT_EQ(jobs::ShedBudgetScale(1), 0.5);
  EXPECT_EQ(jobs::ShedBudgetScale(2), 0.25);
}

// A probe with a fixed reading that counts how often it is sampled.
class CountingProbe : public jobs::LoadProbe {
 public:
  explicit CountingProbe(jobs::LoadSample sample) : sample_(sample) {}
  jobs::LoadSample Sample() override {
    ++samples_;
    return sample_;
  }
  int samples() const { return samples_; }

 private:
  jobs::LoadSample sample_;
  int samples_ = 0;
};

// The one ladder both runners admit through: the level picks the params,
// and the unit's budget is the tighter of the runner's own and the outer
// budget (0 = unset), scaled by the level and floored at 1.
TEST(AdmissionTest, AdmitScalesTheTighterBudgetAndDegradesParams) {
  jobs::ShedPolicy policy;
  policy.rss_soft_bytes = 100;
  policy.rss_hard_bytes = 200;  // midpoint 150
  TycosParams params = Params();
  params.num_restarts = 4;
  const int64_t rss_at_level[] = {0, 120, 170, 250};
  struct Row {
    int64_t own;
    int64_t outer;
    int64_t want[3];  // the unit's budget at levels 0, 1, 2
  };
  const Row rows[] = {
      {0, 0, {0, 0, 0}},
      {100, 0, {100, 50, 25}},
      {0, 100, {100, 50, 25}},
      {100, 40, {40, 20, 10}},
      {40, 100, {40, 20, 10}},
      {1, 0, {1, 1, 1}},
  };
  const auto hash = [](const TycosParams& p) {
    return jobs::HashSearchConfig(p, TycosVariant::kLMN, 42);
  };
  for (int level = 0; level <= 3; ++level) {
    for (const Row& row : rows) {
      SCOPED_TRACE("level " + std::to_string(level) + ", budgets (" +
                   std::to_string(row.own) + ", " +
                   std::to_string(row.outer) + ")");
      jobs::LoadSample sample;
      sample.rss_bytes = rss_at_level[level];
      CountingProbe probe(sample);
      const std::optional<PairAdmission> admission = jobs::Admit(
          policy, &probe, /*in_flight=*/0, params, row.own, row.outer);
      EXPECT_EQ(probe.samples(), 1);
      if (level == 3) {
        EXPECT_FALSE(admission.has_value());
        continue;
      }
      ASSERT_TRUE(admission.has_value());
      EXPECT_EQ(admission->shed_level, level);
      EXPECT_EQ(admission->evaluation_budget, row.want[level]);
      EXPECT_EQ(admission->time_slice_s, 0.0);
      const TycosParams want = jobs::DegradeParams(params, level);
      EXPECT_EQ(admission->params.num_restarts, want.num_restarts);
      EXPECT_EQ(hash(admission->params), hash(want));
    }
  }

  // A disabled policy never samples: level 0, the sweep's params, the
  // tighter budget unscaled.
  jobs::LoadSample overloaded;
  overloaded.rss_bytes = 1 << 30;
  overloaded.queue_depth = 1000;
  CountingProbe probe(overloaded);
  const std::optional<PairAdmission> calm =
      jobs::Admit(jobs::ShedPolicy{}, &probe, 1000, params, 100, 40);
  EXPECT_EQ(probe.samples(), 0);
  ASSERT_TRUE(calm.has_value());
  EXPECT_EQ(calm->shed_level, 0);
  EXPECT_EQ(calm->params.num_restarts, params.num_restarts);
  EXPECT_EQ(calm->evaluation_budget, 40);

  // The caller's in-flight count adds to the probe's queue depth.
  jobs::ShedPolicy queue;
  queue.queue_soft = 4;
  queue.queue_hard = 8;
  jobs::LoadSample two_queued;
  two_queued.queue_depth = 2;
  CountingProbe queued(two_queued);
  EXPECT_EQ(jobs::Admit(queue, &queued, 1, params, 0, 0)->shed_level, 0);
  EXPECT_EQ(jobs::Admit(queue, &queued, 2, params, 0, 0)->shed_level, 1);
  EXPECT_FALSE(jobs::Admit(queue, &queued, 6, params, 0, 0).has_value());
}

// --- Durable runner ---------------------------------------------------------

TEST(DurablePairwiseTest, RequiresCheckpointPath) {
  const auto channels = MakeChannels(1);
  const auto r = ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN,
                                      42, RunContext::None(), {});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(DurablePairwiseTest, FreshRunMatchesPlainPairwiseSearch) {
  const auto channels = MakeChannels(1);
  const PairwiseResult want =
      PairwiseSearch(channels, Params(), TycosVariant::kLMN, 42);
  DurableJobOptions opts;
  opts.checkpoint_path = TempCheckpoint("fresh");
  const auto r = ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN,
                                      42, RunContext::None(), opts);
  ASSERT_TRUE(r.ok()) << r.status().message();
  ExpectBitIdentical(r.value().result, want);
  EXPECT_EQ(r.value().result.stop_reason, StopReason::kCompleted);
  EXPECT_FALSE(r.value().result.partial);
  EXPECT_EQ(r.value().stats.pairs_run, 3);
  EXPECT_EQ(r.value().stats.pairs_resumed, 0);
  EXPECT_EQ(r.value().stats.checkpoint_records_written, 3);
  std::remove(opts.checkpoint_path.c_str());
}

// The headline property: interrupt at EVERY pair boundary, resume at
// several thread counts, and the final result must be bit-identical to the
// uninterrupted run.
TEST(DurablePairwiseTest, ResumeIsBitIdenticalAtEveryBoundaryAndThreadCount) {
  const auto channels = MakeChannels(3);
  const int64_t total = 3;  // C(3, 2)
  const PairwiseResult want =
      PairwiseSearch(channels, Params(), TycosVariant::kLMN, 7);
  for (int64_t boundary = 0; boundary <= total; ++boundary) {
    for (const int threads : {1, 2, 8}) {
      TycosParams p = Params();
      p.num_threads = threads;
      DurableJobOptions opts;
      opts.checkpoint_path =
          TempCheckpoint("resume_" + std::to_string(boundary) + "_" +
                         std::to_string(threads));

      // Phase 1: run exactly `boundary` pairs, then "crash" (stop).
      if (boundary > 0) {
        opts.max_pairs_this_run = boundary;
        const auto first = ResumePairwiseSearch(
            channels, p, TycosVariant::kLMN, 7, RunContext::None(), opts);
        ASSERT_TRUE(first.ok()) << first.status().message();
        EXPECT_EQ(first.value().stats.pairs_run, boundary);
        if (boundary < total) {
          EXPECT_EQ(first.value().result.stop_reason, StopReason::kPaused);
          EXPECT_TRUE(first.value().result.partial);
        }
      }

      // Phase 2: resume with no cap; must complete and match bit-for-bit.
      opts.max_pairs_this_run = 0;
      const auto resumed = ResumePairwiseSearch(
          channels, p, TycosVariant::kLMN, 7, RunContext::None(), opts);
      ASSERT_TRUE(resumed.ok()) << resumed.status().message();
      EXPECT_EQ(resumed.value().stats.pairs_resumed, boundary);
      EXPECT_EQ(resumed.value().stats.pairs_run, total - boundary);
      EXPECT_EQ(resumed.value().result.stop_reason, StopReason::kCompleted);
      ExpectBitIdentical(resumed.value().result, want);
      std::remove(opts.checkpoint_path.c_str());
    }
  }
}

TEST(DurablePairwiseTest, RejectsCheckpointFromDifferentRun) {
  const auto channels = MakeChannels(1);
  DurableJobOptions opts;
  opts.checkpoint_path = TempCheckpoint("wrong_run");
  ASSERT_TRUE(ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN, 42,
                                   RunContext::None(), opts)
                  .ok());
  // Same file, different seed: refuse rather than mix two runs' records.
  const auto r = ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN,
                                      43, RunContext::None(), opts);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(opts.checkpoint_path.c_str());
}

TEST(DurablePairwiseTest, RejectsCorruptCheckpoint) {
  const auto channels = MakeChannels(1);
  DurableJobOptions opts;
  opts.checkpoint_path = TempCheckpoint("corrupt_resume");
  ASSERT_TRUE(ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN, 42,
                                   RunContext::None(), opts)
                  .ok());
  std::vector<uint8_t> bytes = ReadAll(opts.checkpoint_path);
  // Corrupt the first record's payload (the 56-byte header, then a 4-byte
  // length prefix, then payload): an interior record with records after it
  // must reject the file — never be silently dropped like a torn tail.
  bytes[62] ^= 0x08;
  WriteAll(opts.checkpoint_path, bytes);
  const auto r = ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN,
                                      42, RunContext::None(), opts);
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(opts.checkpoint_path.c_str());
}

TEST(DurablePairwiseTest, FailedPairsAreRetriedOnResume) {
  const auto channels = MakeChannels(1);
  DurableJobOptions opts;
  opts.checkpoint_path = TempCheckpoint("retry_on_resume");
  opts.pair_time_slice_s = 1e-9;  // first invocation: every pair fails
  const auto first = ResumePairwiseSearch(
      channels, Params(), TycosVariant::kLMN, 42, RunContext::None(), opts);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().stats.pairs_failed, 3);
  EXPECT_TRUE(first.value().result.entries.empty());

  // Second invocation without a watchdog: the failed pairs were never
  // checkpointed, so they all rerun — and the job completes.
  opts.pair_time_slice_s = 0;
  const auto second = ResumePairwiseSearch(
      channels, Params(), TycosVariant::kLMN, 42, RunContext::None(), opts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.pairs_resumed, 0);
  EXPECT_EQ(second.value().stats.pairs_run, 3);
  ExpectBitIdentical(second.value().result,
                     PairwiseSearch(channels, Params(), TycosVariant::kLMN,
                                    42));
  std::remove(opts.checkpoint_path.c_str());
}

TEST(DurablePairwiseTest, ShedLevelDegradesAndIsRecorded) {
  const auto channels = MakeChannels(1);
  FakeProbe probe(150);  // between soft (100) and midpoint (→ level 1)
  DurableJobOptions opts;
  opts.checkpoint_path = TempCheckpoint("shed1");
  opts.probe = &probe;
  opts.shed.rss_soft_bytes = 100;
  opts.shed.rss_hard_bytes = 1000;
  const auto r = ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN,
                                      42, RunContext::None(), opts);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().stats.pairs_degraded, 3);
  for (const PairwiseEntry& e : r.value().result.entries) {
    EXPECT_EQ(e.shed_level, 1);
  }
  // The recorded level survives the checkpoint round trip.
  auto loaded = LoadCheckpoint(opts.checkpoint_path);
  ASSERT_TRUE(loaded.ok());
  for (const CheckpointedPair& cp : loaded.value().pairs) {
    EXPECT_EQ(cp.entry.shed_level, 1);
  }
  std::remove(opts.checkpoint_path.c_str());
}

TEST(DurablePairwiseTest, HardOverloadRefusesWorkForLater) {
  const auto channels = MakeChannels(1);
  FakeProbe probe(5000);  // far past the hard threshold → level 3
  DurableJobOptions opts;
  opts.checkpoint_path = TempCheckpoint("shed3");
  opts.probe = &probe;
  opts.shed.rss_soft_bytes = 100;
  opts.shed.rss_hard_bytes = 1000;
  const auto r = ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN,
                                      42, RunContext::None(), opts);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().stats.pairs_refused, 3);
  EXPECT_EQ(r.value().stats.pairs_run, 0);
  EXPECT_TRUE(r.value().result.entries.empty());
  EXPECT_TRUE(r.value().result.partial);
  EXPECT_EQ(r.value().result.pairs_skipped, 3);
  std::remove(opts.checkpoint_path.c_str());
}

// Every unit overruns its slice, so each unit is cut once and each pair is
// recorded as failed once, in pair order, at any number of units per pair.
TEST(DurablePairwiseTest, WatchdogIsolatesPathologicalPairs) {
  const auto channels = MakeChannels(1);
  for (const int restarts : {0, 4}) {
    SCOPED_TRACE("num_restarts " + std::to_string(restarts));
    TycosParams p = Params();
    p.num_restarts = restarts;
    p.num_threads = 2;
    DurableJobOptions opts;
    opts.checkpoint_path =
        TempCheckpoint("watchdog_" + std::to_string(restarts));
    opts.pair_time_slice_s = 1e-9;  // every unit expires immediately
    const auto r = ResumePairwiseSearch(channels, p, TycosVariant::kLMN, 42,
                                        RunContext::None(), opts);
    ASSERT_TRUE(r.ok()) << r.status().message();
    // All isolated as failures, the global run is never starved, and
    // nothing was checkpointed (a watchdog partial is timing-dependent).
    const jobs::DurableJobStats& stats = r.value().stats;
    EXPECT_EQ(stats.pairs_failed, 3);
    EXPECT_EQ(stats.watchdog_timeouts, 3 * std::max(1, restarts));
    EXPECT_EQ(stats.checkpoint_records_written, 0);
    const auto ckpt = LoadCheckpoint(opts.checkpoint_path);
    ASSERT_TRUE(ckpt.ok()) << ckpt.status().message();
    EXPECT_TRUE(ckpt.value().pairs.empty());
    EXPECT_TRUE(r.value().result.entries.empty());
    EXPECT_TRUE(r.value().result.partial);
    const std::vector<std::pair<int, int>> want = {{0, 1}, {0, 2}, {1, 2}};
    ASSERT_EQ(stats.failures.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      const jobs::PairFailure& f = stats.failures[i];
      EXPECT_EQ(std::make_pair(f.a, f.b), want[i]) << "failure " << i;
      EXPECT_EQ(f.status.code(), StatusCode::kUnavailable);
      EXPECT_NE(f.status.message().find("watchdog"), std::string::npos);
    }
    std::remove(opts.checkpoint_path.c_str());
  }
}

TEST(DurablePairwiseTest, GlobalCancellationKeepsPartialsUncheckpointed) {
  const auto channels = MakeChannels(1);
  RunContext ctx;
  ctx.RequestCancel();  // cancelled before any pair starts
  DurableJobOptions opts;
  opts.checkpoint_path = TempCheckpoint("cancelled");
  const auto r = ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN,
                                      42, ctx, opts);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().result.stop_reason, StopReason::kCancelled);
  EXPECT_TRUE(r.value().result.partial);
  EXPECT_EQ(r.value().stats.checkpoint_records_written, 0);
  std::remove(opts.checkpoint_path.c_str());
}

TEST(DurablePairwiseTest, PerPairBudgetCheckpointsDeterministicStops) {
  const auto channels = MakeChannels(1);
  DurableJobOptions opts;
  opts.checkpoint_path = TempCheckpoint("budget");
  opts.pair_evaluation_budget = 50;  // exhausts on every pair
  const auto first = ResumePairwiseSearch(
      channels, Params(), TycosVariant::kLMN, 42, RunContext::None(), opts);
  ASSERT_TRUE(first.ok()) << first.status().message();
  // Budget exhaustion is deterministic, so the pairs are final and persist.
  EXPECT_EQ(first.value().stats.checkpoint_records_written, 3);
  // A resume takes all three from the checkpoint, bit-identically.
  const auto second = ResumePairwiseSearch(
      channels, Params(), TycosVariant::kLMN, 42, RunContext::None(), opts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.pairs_resumed, 3);
  EXPECT_EQ(second.value().stats.pairs_run, 0);
  ExpectBitIdentical(second.value().result, first.value().result);
  std::remove(opts.checkpoint_path.c_str());
}

// A crash that tears the trailing record must not poison the checkpoint:
// the resume drops the tail, truncates it away before appending, and still
// converges on the bit-identical full result.
TEST(DurablePairwiseTest, ResumesAcrossTornTailFromCrashedAppend) {
  const auto channels = MakeChannels(1);
  const PairwiseResult want =
      PairwiseSearch(channels, Params(), TycosVariant::kLMN, 42);
  DurableJobOptions opts;
  opts.checkpoint_path = TempCheckpoint("torn_resume");
  opts.max_pairs_this_run = 2;
  ASSERT_TRUE(ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN, 42,
                                   RunContext::None(), opts)
                  .ok());
  // "Crash" mid-append of the second record.
  std::vector<uint8_t> bytes = ReadAll(opts.checkpoint_path);
  bytes.resize(bytes.size() - 3);
  WriteAll(opts.checkpoint_path, bytes);

  opts.max_pairs_this_run = 0;
  const auto resumed = ResumePairwiseSearch(
      channels, Params(), TycosVariant::kLMN, 42, RunContext::None(), opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed.value().stats.pairs_resumed, 1);
  EXPECT_EQ(resumed.value().stats.pairs_run, 2);
  ExpectBitIdentical(resumed.value().result, want);
  // The file is whole again: every pair present, no torn tail left behind.
  auto loaded = LoadCheckpoint(opts.checkpoint_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().dropped_tail_bytes, 0);
  EXPECT_EQ(loaded.value().pairs.size(), 3u);
  std::remove(opts.checkpoint_path.c_str());
}

// With fsync_each_record every fsync branch of the checkpoint writer runs:
// the header create, each record append and (after the simulated crash
// below) the torn-tail cut on resume.
TEST(DurablePairwiseTest, FsyncEachRecordResumesBitIdentically) {
  const auto channels = MakeChannels(1);
  const PairwiseResult want =
      PairwiseSearch(channels, Params(), TycosVariant::kLMN, 42);
  DurableJobOptions opts;
  opts.checkpoint_path = TempCheckpoint("fsync_resume");
  opts.fsync_each_record = true;
  opts.max_pairs_this_run = 2;
  const auto paused = ResumePairwiseSearch(
      channels, Params(), TycosVariant::kLMN, 42, RunContext::None(), opts);
  ASSERT_TRUE(paused.ok()) << paused.status().message();
  EXPECT_EQ(paused.value().stats.pairs_run, 2);
  EXPECT_EQ(paused.value().result.stop_reason, StopReason::kPaused);
  // "Crash" mid-append of the second record.
  std::vector<uint8_t> bytes = ReadAll(opts.checkpoint_path);
  bytes.resize(bytes.size() - 3);
  WriteAll(opts.checkpoint_path, bytes);

  opts.max_pairs_this_run = 0;
  const auto resumed = ResumePairwiseSearch(
      channels, Params(), TycosVariant::kLMN, 42, RunContext::None(), opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed.value().stats.pairs_resumed, 1);
  EXPECT_EQ(resumed.value().stats.pairs_run, 2);
  EXPECT_EQ(resumed.value().result.stop_reason, StopReason::kCompleted);
  ExpectBitIdentical(resumed.value().result, want);
  auto loaded = LoadCheckpoint(opts.checkpoint_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().dropped_tail_bytes, 0);
  EXPECT_EQ(loaded.value().pairs.size(), 3u);
  std::remove(opts.checkpoint_path.c_str());
}

TEST(DurablePairwiseTest, GlobalContextBudgetAppliesPerPair) {
  const auto channels = MakeChannels(1);
  // The durable path must honor a budget set on the caller's RunContext the
  // same way PairwiseSearch does: per pair, against that pair's own
  // evaluation counter.
  RunContext plain_ctx = RunContext::WithEvaluationBudget(50);
  const auto plain = PairwiseSearch(channels, Params(), TycosVariant::kLMN,
                                    42, plain_ctx);
  ASSERT_TRUE(plain.ok()) << plain.status().message();
  RunContext durable_ctx = RunContext::WithEvaluationBudget(50);
  DurableJobOptions opts;
  opts.checkpoint_path = TempCheckpoint("ctx_budget");
  const auto r = ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN,
                                      42, durable_ctx, opts);
  ASSERT_TRUE(r.ok()) << r.status().message();
  ExpectBitIdentical(r.value().result, plain.value());
  std::remove(opts.checkpoint_path.c_str());
}

// Whether two results list the same pairs with the same windows and
// scores, bit for bit.
bool SameEntries(const PairwiseResult& x, const PairwiseResult& y) {
  if (x.entries.size() != y.entries.size()) return false;
  for (size_t i = 0; i < x.entries.size(); ++i) {
    const PairwiseEntry& ex = x.entries[i];
    const PairwiseEntry& ey = y.entries[i];
    if (ex.a != ey.a || ex.b != ey.b || ex.best_score != ey.best_score ||
        ex.windows.size() != ey.windows.size()) {
      return false;
    }
    for (size_t j = 0; j < ex.windows.size(); ++j) {
      const Window& wx = ex.windows.windows()[j];
      const Window& wy = ey.windows.windows()[j];
      if (wx.start != wy.start || wx.end != wy.end || wx.delay != wy.delay ||
          wx.mi != wy.mi) {
        return false;
      }
    }
  }
  return true;
}

// A shed pair's level scales the caller's context budget as well as the
// per-pair one: the service's rule, from the one ladder (jobs::Admit).
TEST(DurablePairwiseTest, ShedLevelScalesTheCallersBudget) {
  const auto channels = MakeChannels(1);
  const int64_t budget = 400;
  const TycosParams degraded = jobs::DegradeParams(Params(), 1);
  RunContext half_ctx = RunContext::WithEvaluationBudget(budget / 2);
  const auto want =
      PairwiseSearch(channels, degraded, TycosVariant::kLMN, 42, half_ctx);
  ASSERT_TRUE(want.ok()) << want.status().message();
  // The budget is tight enough that halving it changes the answer.
  RunContext full_ctx = RunContext::WithEvaluationBudget(budget);
  const auto unscaled =
      PairwiseSearch(channels, degraded, TycosVariant::kLMN, 42, full_ctx);
  ASSERT_TRUE(unscaled.ok()) << unscaled.status().message();
  ASSERT_FALSE(SameEntries(unscaled.value(), want.value()));

  FakeProbe probe(150);  // between soft (100) and midpoint (→ level 1)
  DurableJobOptions opts;
  opts.checkpoint_path = TempCheckpoint("shed_ctx_budget");
  opts.probe = &probe;
  opts.shed.rss_soft_bytes = 100;
  opts.shed.rss_hard_bytes = 1000;
  RunContext ctx = RunContext::WithEvaluationBudget(budget);
  const auto r = ResumePairwiseSearch(channels, Params(), TycosVariant::kLMN,
                                      42, ctx, opts);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().stats.pairs_degraded, 3);
  ExpectBitIdentical(r.value().result, want.value());
  for (const PairwiseEntry& e : r.value().result.entries) {
    EXPECT_EQ(e.shed_level, 1);
  }
  std::remove(opts.checkpoint_path.c_str());
}

// --- Durable sweeps with restarts -------------------------------------------

// Interrupts a num_restarts = 4 durable sweep at every pair boundary
// (max_pairs_this_run), resumes it, at 1/2/8 threads, and checks the final
// result bit-identical to plain PairwiseSearch with the same params under
// `plain_ctx`.
void ExpectRestartResumeMatchesPlain(const std::string& name,
                                     DurableJobOptions opts,
                                     const RunContext& plain_ctx) {
  const auto channels = MakeChannels(3);
  const int64_t total = 3;  // C(3, 2)
  const int restarts = 4;
  TycosParams base = Params();
  base.num_restarts = restarts;
  const auto want =
      PairwiseSearch(channels, base, TycosVariant::kLMN, 7, plain_ctx);
  ASSERT_TRUE(want.ok()) << want.status().message();
  for (int64_t boundary = 0; boundary <= total; ++boundary) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE("boundary " + std::to_string(boundary) + ", threads " +
                   std::to_string(threads));
      TycosParams p = base;
      p.num_threads = threads;
      opts.checkpoint_path =
          TempCheckpoint(name + "_" + std::to_string(boundary) + "_" +
                         std::to_string(threads));

      if (boundary > 0) {
        opts.max_pairs_this_run = boundary;
        const auto first = ResumePairwiseSearch(
            channels, p, TycosVariant::kLMN, 7, RunContext::None(), opts);
        ASSERT_TRUE(first.ok()) << first.status().message();
        EXPECT_EQ(first.value().stats.pairs_run, boundary);
        EXPECT_EQ(first.value().stats.checkpoint_records_written, boundary);
        if (boundary < total) {
          EXPECT_EQ(first.value().result.stop_reason, StopReason::kPaused);
        }
      }

      opts.max_pairs_this_run = 0;
      const auto resumed = ResumePairwiseSearch(
          channels, p, TycosVariant::kLMN, 7, RunContext::None(), opts);
      ASSERT_TRUE(resumed.ok()) << resumed.status().message();
      EXPECT_EQ(resumed.value().stats.pairs_resumed, boundary);
      EXPECT_EQ(resumed.value().stats.pairs_run, total - boundary);
      EXPECT_EQ(resumed.value().stats.pairs_failed, 0);
      EXPECT_EQ(resumed.value().result.stop_reason, StopReason::kCompleted);
      ExpectBitIdentical(resumed.value().result, want.value());
      std::remove(opts.checkpoint_path.c_str());
    }
  }
}

TEST(DurablePairwiseTest, RestartSweepResumesBitIdenticallyToPlain) {
  ExpectRestartResumeMatchesPlain("restart", DurableJobOptions{},
                                  RunContext::None());
}

TEST(DurablePairwiseTest, RestartSweepAppliesThePairBudgetPerClimb) {
  // The plain sweep applies a budgeted context per climb; the durable
  // per-pair budget must land the same way, and its stops checkpoint.
  DurableJobOptions opts;
  opts.pair_evaluation_budget = 50;
  const RunContext plain_ctx = RunContext::WithEvaluationBudget(50);
  ExpectRestartResumeMatchesPlain("restart_budget", opts, plain_ctx);
}

TEST(DurablePairwiseTest, PairsSearchedCounterCountsDurablePairs) {
  const auto channels = MakeChannels(1);
  const auto searched = [] {
    return obs::Snapshot().CounterValue("pairwise.pairs_searched");
  };
  for (const int restarts : {0, 4}) {
    SCOPED_TRACE("num_restarts " + std::to_string(restarts));
    TycosParams p = Params();
    p.num_restarts = restarts;
    p.num_threads = 2;
    DurableJobOptions opts;
    opts.checkpoint_path =
        TempCheckpoint("pairs_searched_" + std::to_string(restarts));
    opts.max_pairs_this_run = 1;
    int64_t before = searched();
    const auto first = ResumePairwiseSearch(channels, p, TycosVariant::kLMN,
                                            42, RunContext::None(), opts);
    ASSERT_TRUE(first.ok()) << first.status().message();
    EXPECT_EQ(searched() - before, first.value().result.pairs_searched);

    // A resume counts only the pairs it searched, not the resumed ones.
    opts.max_pairs_this_run = 0;
    before = searched();
    const auto second = ResumePairwiseSearch(channels, p, TycosVariant::kLMN,
                                             42, RunContext::None(), opts);
    ASSERT_TRUE(second.ok()) << second.status().message();
    EXPECT_EQ(searched() - before, second.value().result.pairs_searched -
                                       second.value().stats.pairs_resumed);
    std::remove(opts.checkpoint_path.c_str());
  }
}

}  // namespace
}  // namespace tycos
