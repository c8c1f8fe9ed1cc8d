// Crash recovery end to end: a child process runs a durable pairwise
// search, the parent SIGKILLs it once the checkpoint shows progress, then
// resumes the job in-process and asserts the final result is bit-identical
// to an uninterrupted run. This is the real-kill counterpart of the
// pair-boundary interruption property in jobs_test.cc — no cooperative
// shutdown, no destructor runs, the process simply vanishes mid-append.
//
// Lives in its own binary (label: resilience) so CI can run exactly this
// under the ASan preset; fork() requires care, so the child runs the
// search single-threaded and exits via _exit().

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/rng.h"
#include "datagen/relations.h"
#include "jobs/checkpoint.h"
#include "jobs/durable_pairwise.h"
#include "search/pairwise.h"

namespace tycos {
namespace {

using datagen::ComposeDataset;
using datagen::RelationType;
using datagen::SegmentSpec;
using jobs::DurableJobOptions;
using jobs::LoadCheckpoint;
using jobs::ResumePairwiseSearch;

// Enough channels that the sweep takes long enough for the parent to
// observe mid-flight progress: C(6, 2) = 15 pairs.
std::vector<TimeSeries> MakeChannels() {
  const auto ds = ComposeDataset(
      {SegmentSpec{RelationType::kSine, 200, 8}}, /*gap=*/200, /*seed=*/17);
  std::vector<TimeSeries> channels = {ds.pair.x(), ds.pair.y()};
  Rng rng(1234);
  for (int i = 0; i < 4; ++i) {
    std::vector<double> noise(static_cast<size_t>(ds.pair.size()));
    for (double& v : noise) v = rng.Normal();
    channels.emplace_back(std::move(noise), "N" + std::to_string(i));
  }
  return channels;
}

TycosParams Params() {
  TycosParams p;
  p.sigma = 0.5;
  p.s_min = 24;
  p.s_max = 300;
  p.td_max = 16;
  p.num_threads = 1;  // fork safety: no helper threads in the child
  return p;
}

#if defined(__unix__) || defined(__APPLE__)

// Polls the checkpoint until it holds >= min_records records (or gives up).
int64_t WaitForRecords(const std::string& path, int64_t min_records) {
  for (int i = 0; i < 20000; ++i) {
    const auto loaded = LoadCheckpoint(path);
    if (loaded.ok() &&
        static_cast<int64_t>(loaded.value().pairs.size()) >= min_records) {
      return static_cast<int64_t>(loaded.value().pairs.size());
    }
    usleep(1000);
  }
  return -1;
}

TEST(CrashRecoveryTest, SigkillMidRunThenResumeIsBitIdentical) {
  const std::vector<TimeSeries> channels = MakeChannels();
  const TycosParams params = Params();
  const uint64_t seed = 42;
  const std::string path =
      ::testing::TempDir() + "/tycos_crash_recovery.ckpt";
  std::remove(path.c_str());

  const PairwiseResult want =
      PairwiseSearch(channels, params, TycosVariant::kLMN, seed);

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: run the durable job to completion (if the parent is too slow
    // to kill us, that is fine — the checkpoint is complete either way).
    DurableJobOptions opts;
    opts.checkpoint_path = path;
    const auto r = ResumePairwiseSearch(channels, params, TycosVariant::kLMN,
                                        seed, RunContext::None(), opts);
    _exit(r.ok() ? 0 : 1);
  }

  // Parent: wait until the child has durably finished a few pairs, then
  // kill it without any chance to clean up.
  const int64_t seen = WaitForRecords(path, 2);
  ASSERT_GT(seen, 0) << "child never produced checkpoint records";
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);

  // The checkpoint must load despite the kill: at worst the final record
  // is torn and dropped.
  const auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  const int64_t persisted = static_cast<int64_t>(loaded.value().pairs.size());
  ASSERT_GE(persisted, 2);

  // Resume in-process and compare against the uninterrupted run.
  DurableJobOptions opts;
  opts.checkpoint_path = path;
  const auto resumed = ResumePairwiseSearch(channels, params,
                                            TycosVariant::kLMN, seed,
                                            RunContext::None(), opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  const PairwiseResult& got = resumed.value().result;
  EXPECT_EQ(resumed.value().stats.pairs_resumed, persisted);
  EXPECT_EQ(got.stop_reason, StopReason::kCompleted);
  EXPECT_FALSE(got.partial);

  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (size_t i = 0; i < got.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].a, want.entries[i].a) << "entry " << i;
    EXPECT_EQ(got.entries[i].b, want.entries[i].b) << "entry " << i;
    EXPECT_EQ(got.entries[i].best_score, want.entries[i].best_score)
        << "entry " << i;  // bit-exact
    ASSERT_EQ(got.entries[i].windows.size(), want.entries[i].windows.size());
    const std::vector<Window>& gw = got.entries[i].windows.windows();
    const std::vector<Window>& ww = want.entries[i].windows.windows();
    for (size_t j = 0; j < gw.size(); ++j) {
      EXPECT_EQ(gw[j].start, ww[j].start);
      EXPECT_EQ(gw[j].end, ww[j].end);
      EXPECT_EQ(gw[j].delay, ww[j].delay);
      EXPECT_EQ(gw[j].mi, ww[j].mi);  // bit-exact
    }
  }
  std::remove(path.c_str());
}

TEST(CrashRecoveryTest, RepeatedKillsEventuallyComplete) {
  // Kill the job several times at whatever point it has reached; each
  // resume must only add records, never lose or change them, until the
  // job completes. Models a flaky host that keeps OOM-killing the search.
  const std::vector<TimeSeries> channels = MakeChannels();
  const TycosParams params = Params();
  const uint64_t seed = 7;
  const int64_t total =
      static_cast<int64_t>(channels.size() * (channels.size() - 1) / 2);
  const std::string path =
      ::testing::TempDir() + "/tycos_crash_repeat.ckpt";
  std::remove(path.c_str());

  int64_t prev_records = 0;
  for (int round = 0; round < 3; ++round) {
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      DurableJobOptions opts;
      opts.checkpoint_path = path;
      const auto r = ResumePairwiseSearch(
          channels, params, TycosVariant::kLMN, seed, RunContext::None(),
          opts);
      _exit(r.ok() ? 0 : 1);
    }
    (void)WaitForRecords(path, prev_records + 1);
    kill(child, SIGKILL);
    int wstatus = 0;
    ASSERT_EQ(waitpid(child, &wstatus, 0), child);
    const auto loaded = LoadCheckpoint(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    const int64_t now = static_cast<int64_t>(loaded.value().pairs.size());
    EXPECT_GE(now, prev_records) << "a kill lost checkpointed records";
    prev_records = now;
  }

  DurableJobOptions opts;
  opts.checkpoint_path = path;
  const auto final_run = ResumePairwiseSearch(
      channels, params, TycosVariant::kLMN, seed, RunContext::None(), opts);
  ASSERT_TRUE(final_run.ok()) << final_run.status().message();
  EXPECT_EQ(final_run.value().result.stop_reason, StopReason::kCompleted);
  EXPECT_EQ(final_run.value().result.pairs_searched, total);
  EXPECT_GE(final_run.value().stats.pairs_resumed, prev_records);
  std::remove(path.c_str());
}

#endif  // defined(__unix__) || defined(__APPLE__)

}  // namespace
}  // namespace tycos
