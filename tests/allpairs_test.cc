#include "search/allpairs.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "datagen/clusters.h"
#include "io/report.h"
#include "jobs/checkpoint.h"
#include "jobs/durable_pairwise.h"
#include "obs/metrics.h"
#include "search/pairwise.h"

namespace tycos {
namespace {

using datagen::ClusteredDataset;
using datagen::ClusterGenOptions;
using datagen::MakeCorrelatedClusters;
using jobs::AllPairsJobOptions;
using jobs::AllPairsJobOutcome;
using jobs::ResumeAllPairsSearch;

ClusteredDataset MakeDataset(uint64_t seed) {
  ClusterGenOptions opt;
  opt.num_channels = 8;
  opt.num_clusters = 1;
  opt.channels_per_cluster = 3;
  opt.length = 384;
  opt.max_delay = 4;
  opt.member_noise = 0.25;
  opt.seed = seed;
  auto ds = MakeCorrelatedClusters(opt);
  EXPECT_TRUE(ds.ok()) << ds.status().message();
  return std::move(ds.value());
}

TycosParams Params() {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 24;
  p.s_max = 96;
  p.td_max = 4;
  return p;
}

PrefilterParams Prefilter() {
  PrefilterParams pf;
  pf.window = 64;
  pf.hop = 32;
  pf.pearson_threshold = 0.5;
  return pf;
}

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name + ".ckpt";
  std::remove(path.c_str());
  std::remove((path + ".survivors").c_str());
  return path;
}

// A fresh durable all-pairs job: no checkpoint or survivor list on disk.
AllPairsJobOptions JobOptions(const std::string& name) {
  AllPairsJobOptions opt;
  opt.durable.checkpoint_path = TempPath(name);
  opt.prefilter = Prefilter();
  return opt;
}

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) std::fclose(f);
  return f != nullptr;
}

void ExpectSameEntries(const std::vector<PairwiseEntry>& xs,
                       const std::vector<PairwiseEntry>& ys) {
  ASSERT_EQ(xs.size(), ys.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(xs[i].a, ys[i].a);
    EXPECT_EQ(xs[i].b, ys[i].b);
    // Bit-identical scores, not approximately equal.
    EXPECT_EQ(xs[i].best_score, ys[i].best_score) << "entry " << i;
    EXPECT_EQ(xs[i].window_count(), ys[i].window_count()) << "entry " << i;
  }
}

// The headline contract: the cascade only removes pairs — every survivor's
// search result is bit-identical to the same pair's entry in a full
// PairwiseSearch (per-pair seeding makes the pruning invisible).
TEST(ResumeAllPairsTest, SurvivorEntriesMatchTheFullSweepBitExactly) {
  const ClusteredDataset ds = MakeDataset(1);
  const TycosParams params = Params();
  const auto all = ResumeAllPairsSearch(ds.channels, params,
                                        TycosVariant::kLMN, /*seed=*/7,
                                        RunContext(), JobOptions("allpairs"));
  ASSERT_TRUE(all.ok()) << all.status().message();
  const AllPairsJobOutcome& r = all.value();
  ASSERT_FALSE(r.survivors.empty());
  EXPECT_EQ(r.pairs_pruned + static_cast<int64_t>(r.survivors.size()),
            r.prefilter.pairs_total);

  const auto full = PairwiseSearch(ds.channels, params, TycosVariant::kLMN,
                                   /*seed=*/7, RunContext());
  ASSERT_TRUE(full.ok());
  std::vector<PairwiseEntry> expected;
  for (const PairwiseEntry& e : full.value().entries) {
    for (const auto& [a, b] : r.survivors) {
      if (a == e.a && b == e.b) expected.push_back(e);
    }
  }
  std::vector<PairwiseEntry> got = r.durable.result.entries;
  SortPairwiseEntries(&expected);
  ExpectSameEntries(got, expected);
}

TEST(ResumeAllPairsTest, KeepsEveryPlantedPair) {
  const ClusteredDataset ds = MakeDataset(2);
  const auto all =
      ResumeAllPairsSearch(ds.channels, Params(), TycosVariant::kLMN, 3,
                           RunContext(), JobOptions("allpairs_planted"));
  ASSERT_TRUE(all.ok()) << all.status().message();
  ASSERT_FALSE(ds.pairs.empty());
  for (const datagen::PlantedClusterPair& p : ds.pairs) {
    bool found = false;
    for (const auto& [a, b] : all.value().survivors) {
      found = found || (a == p.a && b == p.b);
    }
    EXPECT_TRUE(found) << "planted pair (" << p.a << ", " << p.b
                       << ") was pruned";
  }
}

TEST(ResumeAllPairsTest, StopDuringCascadeReportsEverythingSkipped) {
  const ClusteredDataset ds = MakeDataset(3);
  RunContext ctx;
  ctx.RequestCancel();
  const auto all = ResumeAllPairsSearch(ds.channels, Params(),
                                        TycosVariant::kLMN, 3, ctx,
                                        JobOptions("allpairs_cancelled"));
  ASSERT_TRUE(all.ok()) << all.status().message();
  const PairwiseResult& result = all.value().durable.result;
  EXPECT_TRUE(result.partial);
  EXPECT_EQ(result.stop_reason, StopReason::kCancelled);
  EXPECT_EQ(result.pairs_skipped, all.value().prefilter.pairs_total);
  EXPECT_EQ(all.value().pairs_pruned, 0);
  EXPECT_TRUE(all.value().survivors.empty());
}

TEST(SearchPairListTest, RejectsMalformedPairLists) {
  const ClusteredDataset ds = MakeDataset(4);
  const TycosParams params = Params();
  auto run = [&](std::vector<std::pair<int, int>> pairs) {
    return SearchPairList(ds.channels, pairs, params, TycosVariant::kLMN, 1,
                          RunContext());
  };
  EXPECT_FALSE(run({{3, 1}}).ok());             // a >= b
  EXPECT_FALSE(run({{0, 99}}).ok());            // out of range
  EXPECT_FALSE(run({{0, 1}, {0, 1}}).ok());     // duplicate
  EXPECT_FALSE(run({{1, 2}, {0, 1}}).ok());     // unsorted
  const auto empty = run({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().entries.empty());
  EXPECT_EQ(empty.value().stop_reason, StopReason::kCompleted);
}

// --- Durable all-pairs: survivor persistence + checkpoint resume ---------

TEST(ResumeAllPairsTest, InterruptedRunResumesBitIdentically) {
  const ClusteredDataset ds = MakeDataset(5);
  const TycosParams params = Params();

  const AllPairsJobOptions fresh = JobOptions("allpairs_fresh");
  const auto uninterrupted = ResumeAllPairsSearch(
      ds.channels, params, TycosVariant::kLMN, 9, RunContext(), fresh);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().message();
  EXPECT_FALSE(uninterrupted.value().survivors_resumed);
  EXPECT_EQ(uninterrupted.value().durable.result.stop_reason,
            StopReason::kCompleted);

  // Same job, but paused after every single pair until done.
  AllPairsJobOptions stepped = JobOptions("allpairs_stepped");
  stepped.durable.max_pairs_this_run = 1;
  AllPairsJobOutcome last;
  int invocations = 0;
  for (; invocations < 200; ++invocations) {
    auto step = ResumeAllPairsSearch(ds.channels, params, TycosVariant::kLMN,
                                     9, RunContext(), stepped);
    ASSERT_TRUE(step.ok()) << step.status().message();
    last = std::move(step.value());
    if (last.durable.result.stop_reason == StopReason::kCompleted) break;
    EXPECT_EQ(last.durable.result.stop_reason, StopReason::kPaused);
  }
  // Invocation 2 onward must reuse the persisted survivor list.
  EXPECT_TRUE(last.survivors_resumed);
  EXPECT_GT(invocations, 0);
  EXPECT_EQ(last.pairs_pruned, uninterrupted.value().pairs_pruned);
  ASSERT_EQ(last.survivors, uninterrupted.value().survivors);
  ExpectSameEntries(last.durable.result.entries,
                    uninterrupted.value().durable.result.entries);
}

// With fsync_each_record the survivor list and every checkpoint record are
// fsynced; a run paused after 2 pairs and resumed to completion must still
// equal SearchPairList over the same survivors and leave a whole
// checkpoint.
TEST(ResumeAllPairsTest, FsyncEachRecordResumesBitIdentically) {
  const ClusteredDataset ds = MakeDataset(5);
  const TycosParams params = Params();
  AllPairsJobOptions opt = JobOptions("allpairs_fsync");
  opt.durable.fsync_each_record = true;
  opt.durable.max_pairs_this_run = 2;
  const auto paused = ResumeAllPairsSearch(
      ds.channels, params, TycosVariant::kLMN, 9, RunContext(), opt);
  ASSERT_TRUE(paused.ok()) << paused.status().message();
  ASSERT_GT(paused.value().survivors.size(), 2u);
  EXPECT_EQ(paused.value().durable.stats.pairs_run, 2);
  EXPECT_EQ(paused.value().durable.result.stop_reason, StopReason::kPaused);

  opt.durable.max_pairs_this_run = 0;
  const auto resumed = ResumeAllPairsSearch(
      ds.channels, params, TycosVariant::kLMN, 9, RunContext(), opt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_TRUE(resumed.value().survivors_resumed);
  EXPECT_EQ(resumed.value().durable.result.stop_reason,
            StopReason::kCompleted);

  const auto want = SearchPairList(ds.channels, resumed.value().survivors,
                                   params, TycosVariant::kLMN, 9, RunContext());
  ASSERT_TRUE(want.ok()) << want.status().message();
  std::vector<PairwiseEntry> expected = want.value().entries;
  SortPairwiseEntries(&expected);
  ExpectSameEntries(resumed.value().durable.result.entries, expected);

  const auto loaded = jobs::LoadCheckpoint(opt.durable.checkpoint_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().dropped_tail_bytes, 0);
  EXPECT_EQ(loaded.value().pairs.size(), resumed.value().survivors.size());
}

TEST(ResumeAllPairsTest, SurvivorListFromADifferentRunFallsBackToFresh) {
  const ClusteredDataset ds = MakeDataset(6);
  const AllPairsJobOptions opt = JobOptions("allpairs_rebind");
  const auto first = ResumeAllPairsSearch(ds.channels, Params(),
                                          TycosVariant::kLMN, 1, RunContext(),
                                          opt);
  ASSERT_TRUE(first.ok()) << first.status().message();

  // A different prefilter config derives a different survivor universe:
  // the persisted list must never be silently reused. It IS derived data,
  // though, so the run recomputes the cascade instead of dying — the
  // typed rejection is surfaced in survivors_rejected.
  AllPairsJobOptions changed = opt;
  changed.durable.checkpoint_path = TempPath("allpairs_rebind2");
  changed.prefilter.pearson_threshold = 0.25;
  // Reuse the stale file under the new checkpoint's name.
  ASSERT_EQ(std::rename(
                (opt.durable.checkpoint_path + ".survivors").c_str(),
                (changed.durable.checkpoint_path + ".survivors").c_str()),
            0);
  const auto second = ResumeAllPairsSearch(
      ds.channels, Params(), TycosVariant::kLMN, 1, RunContext(), changed);
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_FALSE(second.value().survivors_resumed);
  EXPECT_EQ(second.value().survivors_rejected.code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(second.value().durable.result.stop_reason,
            StopReason::kCompleted);

  // The bad file was overwritten by the fresh cascade: a third run resumes
  // the NEW list cleanly.
  const auto third = ResumeAllPairsSearch(
      ds.channels, Params(), TycosVariant::kLMN, 1, RunContext(), changed);
  ASSERT_TRUE(third.ok()) << third.status().message();
  EXPECT_TRUE(third.value().survivors_resumed);
  EXPECT_TRUE(third.value().survivors_rejected.ok());
  EXPECT_EQ(third.value().survivors, second.value().survivors);
}

// Corrupts one byte of `path` at `offset` (from the start when >= 0, from
// EOF when negative), or truncates the file to `offset` bytes when
// `truncate` is set.
void DamageFile(const std::string& path, long offset, bool truncate = false) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  if (truncate) {
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    ASSERT_GT(size, offset);
    std::vector<char> head(static_cast<size_t>(offset));
    ASSERT_EQ(std::fseek(f, 0, SEEK_SET), 0);
    ASSERT_EQ(std::fread(head.data(), 1, head.size(), f), head.size());
    ASSERT_EQ(std::fclose(f), 0);
    f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(head.data(), 1, head.size(), f), head.size());
    ASSERT_EQ(std::fclose(f), 0);
    return;
  }
  ASSERT_EQ(std::fseek(f, offset, offset < 0 ? SEEK_END : SEEK_SET), 0);
  int byte = std::fgetc(f);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
  const unsigned char flipped = static_cast<unsigned char>(byte) ^ 0xFF;
  ASSERT_EQ(std::fwrite(&flipped, 1, 1, f), 1u);
  ASSERT_EQ(std::fclose(f), 0);
}

// Shared body for the survivor corruption tests: damage the persisted list,
// then verify the resume never crashes and never silently treats the file
// as an empty universe — it records a typed IoError, recomputes the
// cascade, and lands on the same survivors as the undamaged run.
void ExpectFallbackAfterDamage(uint64_t dataset_seed, const char* name,
                               long offset, bool truncate) {
  const ClusteredDataset ds = MakeDataset(dataset_seed);
  const AllPairsJobOptions opt = JobOptions(name);
  const auto first = ResumeAllPairsSearch(ds.channels, Params(),
                                          TycosVariant::kLMN, 1, RunContext(),
                                          opt);
  ASSERT_TRUE(first.ok()) << first.status().message();
  ASSERT_FALSE(first.value().survivors.empty());

  DamageFile(opt.durable.checkpoint_path + ".survivors", offset, truncate);

  const auto second = ResumeAllPairsSearch(
      ds.channels, Params(), TycosVariant::kLMN, 1, RunContext(), opt);
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_FALSE(second.value().survivors_resumed);
  EXPECT_EQ(second.value().survivors_rejected.code(), StatusCode::kIoError);
  EXPECT_EQ(second.value().survivors, first.value().survivors);

  // The rewritten file is valid again.
  const auto third = ResumeAllPairsSearch(
      ds.channels, Params(), TycosVariant::kLMN, 1, RunContext(), opt);
  ASSERT_TRUE(third.ok()) << third.status().message();
  EXPECT_TRUE(third.value().survivors_resumed);
  EXPECT_TRUE(third.value().survivors_rejected.ok());
}

TEST(ResumeAllPairsTest, CorruptSurvivorListFallsBackToFreshCascade) {
  // Interior byte flip (offset 20 lands in the header fields).
  ExpectFallbackAfterDamage(7, "allpairs_corrupt", 20, false);
}

TEST(ResumeAllPairsTest, BitFlippedSealFallsBackToFreshCascade) {
  // Flip inside the trailing whole-file FNV seal itself.
  ExpectFallbackAfterDamage(7, "allpairs_badseal", -3, false);
}

TEST(ResumeAllPairsTest, TruncatedSurvivorListFallsBackToFreshCascade) {
  // A torn file (e.g. non-atomic copy): cut it mid-pair-array.
  ExpectFallbackAfterDamage(7, "allpairs_torn", 50, true);
}

TEST(ResumeAllPairsTest, StoppedCascadeIsNeverPersisted) {
  const ClusteredDataset ds = MakeDataset(8);
  const AllPairsJobOptions opt = JobOptions("allpairs_stopped");
  RunContext ctx;
  ctx.RequestCancel();
  const auto out = ResumeAllPairsSearch(ds.channels, Params(),
                                        TycosVariant::kLMN, 1, ctx, opt);
  ASSERT_TRUE(out.ok()) << out.status().message();
  EXPECT_TRUE(out.value().durable.result.partial);
  EXPECT_FALSE(FileExists(opt.durable.checkpoint_path + ".survivors"));
  EXPECT_FALSE(FileExists(opt.durable.checkpoint_path));
}

// A cascade that prunes every pair leaves nothing to resume or record: the
// empty survivor list persists, and no checkpoint is created.
TEST(ResumeAllPairsTest, EmptySurvivorUniverseWritesNoCheckpoint) {
  const ClusteredDataset ds = MakeDataset(8);
  AllPairsJobOptions opt = JobOptions("allpairs_empty");
  opt.prefilter.pearson_threshold = 1.0;  // only a perfect |r| survives
  const auto out = ResumeAllPairsSearch(ds.channels, Params(),
                                        TycosVariant::kLMN, 1, RunContext(),
                                        opt);
  ASSERT_TRUE(out.ok()) << out.status().message();
  ASSERT_TRUE(out.value().survivors.empty());
  EXPECT_EQ(out.value().durable.result.stop_reason, StopReason::kCompleted);
  EXPECT_FALSE(out.value().durable.result.partial);
  EXPECT_TRUE(FileExists(opt.durable.checkpoint_path + ".survivors"));
  EXPECT_FALSE(FileExists(opt.durable.checkpoint_path));
}

TEST(SurvivorListTest, RoundTripsThroughDisk) {
  jobs::SurvivorData data;
  data.identity.config_hash = 0x1234;
  data.identity.data_fingerprint = 0x5678;
  data.identity.seed = 42;
  data.identity.num_channels = 10;
  data.identity.series_length = 512;
  data.pairs = {{0, 1}, {0, 5}, {3, 9}};
  const std::string path = ::testing::TempDir() + "/roundtrip.survivors";
  std::remove(path.c_str());
  ASSERT_TRUE(jobs::SaveSurvivorList(path, data, false).ok());
  const auto loaded = jobs::LoadSurvivorList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded.value().identity.config_hash, data.identity.config_hash);
  EXPECT_EQ(loaded.value().identity.data_fingerprint,
            data.identity.data_fingerprint);
  EXPECT_EQ(loaded.value().identity.seed, data.identity.seed);
  EXPECT_EQ(loaded.value().identity.num_channels,
            data.identity.num_channels);
  EXPECT_EQ(loaded.value().identity.series_length,
            data.identity.series_length);
  EXPECT_EQ(loaded.value().pairs, data.pairs);
}

TEST(SurvivorListTest, MissingFileIsNotFound) {
  const auto loaded =
      jobs::LoadSurvivorList(::testing::TempDir() + "/no_such.survivors");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// A survivor list that cannot be read or written says so, never
// "checkpoint": the message is what survivors_rejected reports.
TEST(SurvivorListTest, FileErrorsNameTheSurvivorList) {
  const std::string dir = ::testing::TempDir() + "/survivors_as_dir";
  std::filesystem::create_directories(dir);
  const auto unreadable = jobs::LoadSurvivorList(dir);  // fread: EISDIR
  ASSERT_FALSE(unreadable.ok());
  EXPECT_EQ(unreadable.status().code(), StatusCode::kIoError);
  EXPECT_NE(unreadable.status().message().find("survivor list"),
            std::string::npos)
      << unreadable.status().ToString();

  const auto absent =
      jobs::LoadSurvivorList(::testing::TempDir() + "/absent.survivors");
  ASSERT_FALSE(absent.ok());
  EXPECT_EQ(absent.status().code(), StatusCode::kNotFound);
  EXPECT_NE(absent.status().message().find("survivor list"),
            std::string::npos)
      << absent.status().ToString();

  jobs::SurvivorData data;
  data.identity.num_channels = 2;
  data.pairs = {{0, 1}};
  const Status saved = jobs::SaveSurvivorList(
      ::testing::TempDir() + "/no_such_dir/x.survivors", data, false);
  EXPECT_EQ(saved.code(), StatusCode::kIoError);
  EXPECT_NE(saved.message().find("survivor list"), std::string::npos)
      << saved.ToString();
  std::filesystem::remove(dir);
}

// The bytes of a small valid survivor list, via the real writer. Each test
// writes its own file, named after it: ctest runs every test as its own
// process, so callers sharing one file would race. A failed save or read
// stops the calling test (wrap the call in ASSERT_NO_FATAL_FAILURE).
void ValidSurvivorBytes(std::vector<uint8_t>* bytes) {
  jobs::SurvivorData data;
  data.identity.config_hash = 0x1234;
  data.identity.data_fingerprint = 0x5678;
  data.identity.seed = 42;
  data.identity.num_channels = 10;
  data.identity.series_length = 512;
  data.pairs = {{0, 1}, {0, 5}, {3, 9}};
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string path = ::testing::TempDir() + "/" +
                           test->test_suite_name() + "." + test->name() +
                           ".survivors";
  std::remove(path.c_str());
  ASSERT_TRUE(jobs::SaveSurvivorList(path, data, false).ok());
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  bytes->assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  in.close();
  std::remove(path.c_str());
  ASSERT_FALSE(bytes->empty()) << path;
}

// Mirrors the checkpoint torn-tail suite, with the survivor list's stricter
// contract: there is no append path, so there is NO torn-tail tolerance —
// every proper prefix must be rejected with a typed IoError, never loaded
// as a shorter (silently pair-dropping) list.
TEST(SurvivorListTest, EveryTruncationIsRejectedWithATypedError) {
  std::vector<uint8_t> bytes;
  ASSERT_NO_FATAL_FAILURE(ValidSurvivorBytes(&bytes));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto parsed = jobs::ParseSurvivorBytes(bytes.data(), cut, "<test>");
    ASSERT_FALSE(parsed.ok()) << "prefix of " << cut << " bytes was accepted";
    EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
  }
}

TEST(SurvivorListTest, EveryBitFlipIsRejected) {
  std::vector<uint8_t> bytes;
  ASSERT_NO_FATAL_FAILURE(ValidSurvivorBytes(&bytes));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> bad = bytes;
    bad[i] ^= 0xFF;
    const auto parsed =
        jobs::ParseSurvivorBytes(bad.data(), bad.size(), "<test>");
    // The whole-file seal covers every byte before it, and a flip inside
    // the seal itself mismatches too: no single-byte corruption survives.
    ASSERT_FALSE(parsed.ok()) << "flip at byte " << i << " was accepted";
    EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
  }
}

TEST(SurvivorListTest, HugePairCountIsRejectedWithoutAllocating) {
  // Forge pair_count = 2^61 + actual (a value whose *8 wraps to the true
  // byte length) and re-seal the file so only the count check can catch
  // it. A multiply-based length check would pass and hand reserve() an
  // exabyte. Regression for the overflow fixed alongside the fuzzers.
  std::vector<uint8_t> bytes;
  ASSERT_NO_FATAL_FAILURE(ValidSurvivorBytes(&bytes));
  constexpr size_t kCountOffset = 8 + 4 + 4 + 8 + 8 + 8 + 8;
  uint64_t count = 0;
  std::memcpy(&count, bytes.data() + kCountOffset, sizeof(count));
  count += uint64_t{1} << 61;
  std::memcpy(bytes.data() + kCountOffset, &count, sizeof(count));
  const uint64_t seal = Fnv1a(bytes.data(), bytes.size() - sizeof(uint64_t));
  std::memcpy(bytes.data() + bytes.size() - sizeof(seal), &seal,
              sizeof(seal));
  const auto parsed =
      jobs::ParseSurvivorBytes(bytes.data(), bytes.size(), "<test>");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
  EXPECT_NE(parsed.status().message().find("pair count"), std::string::npos);
}

// The checked-in fuzz regression seed for the same overflow must reach the
// pair-count guard, not stop at the seal: a seed sealed with any hash but
// the writer's would be rejected as corrupt and replay nothing.
TEST(SurvivorListTest, CommittedHugePairCountSeedReachesThePairCountCheck) {
  const std::string path =
      std::filesystem::path(__FILE__).parent_path().string() +
      "/fuzz/corpus/survivors/regression_huge_pair_count";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << path;
  const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
  const auto parsed =
      jobs::ParseSurvivorBytes(bytes.data(), bytes.size(), "<seed>");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
  EXPECT_NE(
      parsed.status().message().find("length does not match its pair count"),
      std::string::npos)
      << parsed.status().ToString();
}

TEST(SurvivorListTest, PrefilterConfigHashCoversEveryKnob) {
  const TycosParams params = Params();
  PrefilterParams pf = Prefilter();
  pf.td_max = 4;
  const uint64_t base =
      jobs::HashPrefilterConfig(params, TycosVariant::kLMN, 1, pf);
  PrefilterParams changed = pf;
  changed.window = 32;
  EXPECT_NE(base,
            jobs::HashPrefilterConfig(params, TycosVariant::kLMN, 1, changed));
  changed = pf;
  changed.pearson_threshold = 0.9;
  EXPECT_NE(base,
            jobs::HashPrefilterConfig(params, TycosVariant::kLMN, 1, changed));
  EXPECT_NE(base, jobs::HashPrefilterConfig(params, TycosVariant::kLMN, 2, pf));
  // num_threads must NOT rebind: results are thread-count invariant.
  changed = pf;
  changed.num_threads = 8;
  EXPECT_EQ(base,
            jobs::HashPrefilterConfig(params, TycosVariant::kLMN, 1, changed));
}

// Satellite: the prefilter.* and jobs.pairs_pruned counters flow into the
// pairwise report's metrics section.
TEST(AllPairsReportTest, MetricsSectionListsPrefilterCounters) {
  const ClusteredDataset ds = MakeDataset(9);
  const AllPairsJobOptions opt = JobOptions("allpairs_report");
  const auto out = ResumeAllPairsSearch(ds.channels, Params(),
                                        TycosVariant::kLMN, 1, RunContext(),
                                        opt);
  ASSERT_TRUE(out.ok()) << out.status().message();

  ReportOptions ropt;
  ropt.include_metrics = true;
  const std::string md = RenderPairwiseReport(
      ds.channels, Params(), out.value().durable.result, ropt);
  EXPECT_NE(md.find("## Metrics"), std::string::npos);
  EXPECT_NE(md.find("prefilter.stage1.candidates"), std::string::npos);
  EXPECT_NE(md.find("prefilter.stage2.candidates"), std::string::npos);
  EXPECT_NE(md.find("prefilter.pairs_pruned"), std::string::npos);
  EXPECT_NE(md.find("jobs.pairs_pruned"), std::string::npos);
}

}  // namespace
}  // namespace tycos
