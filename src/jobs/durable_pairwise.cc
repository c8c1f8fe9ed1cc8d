#include "jobs/durable_pairwise.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <utility>

#include "common/annotations.h"
#include "jobs/checkpoint.h"
#include "search/allpairs.h"
#include "obs/metrics.h"

namespace tycos {
namespace jobs {

Status DurableJobOptions::Validate() const {
  if (checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "DurableJobOptions.checkpoint_path must be set: a durable job "
        "without a checkpoint cannot resume");
  }
  if (!(pair_time_slice_s >= 0)) {
    return Status::InvalidArgument(
        "DurableJobOptions.pair_time_slice_s must be >= 0 (0 = none), got " +
        std::to_string(pair_time_slice_s));
  }
  if (pair_evaluation_budget < 0) {
    return Status::InvalidArgument(
        "DurableJobOptions.pair_evaluation_budget must be >= 0 (0 = none), "
        "got " + std::to_string(pair_evaluation_budget));
  }
  if (max_pairs_this_run < 0) {
    return Status::InvalidArgument(
        "DurableJobOptions.max_pairs_this_run must be >= 0 (0 = "
        "unlimited), got " + std::to_string(max_pairs_this_run));
  }
  return shed.Validate();
}

namespace {

// The durable hooks' shared state: serializes checkpoint appends and
// folds the per-pair stats that concurrent units report. Once an append
// fails the ledger stops touching the file: durability degrades (this and
// later pairs rerun on resume) rather than the whole run dying on a full
// disk.
class JobLedger {
 public:
  explicit JobLedger(CheckpointWriter* writer) : writer_(writer) {}

  JobLedger(const JobLedger&) = delete;
  JobLedger& operator=(const JobLedger&) = delete;

  void Append(const CheckpointedPair& record) TYCOS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (!stats_.checkpoint_error.ok()) return;
    stats_.checkpoint_error = writer_->Append(record);
  }

  // Runs `update` on the stats under the ledger's lock.
  template <typename Update>
  void Fold(const Update& update) TYCOS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    update(stats_);
  }

  // Records a failed unit. A pair fails once: its lowest failing unit is
  // the one reported, whatever order the units ended in.
  void Fail(int64_t pair, int unit, PairFailure failure)
      TYCOS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    auto [it, added] = failures_.try_emplace(pair, unit, failure);
    if (!added && unit < it->second.first) it->second = {unit, failure};
  }

  // The folded stats, failures in pair order.
  DurableJobStats Take() TYCOS_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    for (const auto& [pair, failure] : failures_) {
      stats_.failures.push_back(failure.second);
    }
    stats_.pairs_failed = static_cast<int64_t>(failures_.size());
    return std::move(stats_);
  }

 private:
  Mutex mu_;
  CheckpointWriter* const writer_ TYCOS_PT_GUARDED_BY(mu_);
  DurableJobStats stats_ TYCOS_GUARDED_BY(mu_);
  std::map<int64_t, std::pair<int, PairFailure>> failures_
      TYCOS_GUARDED_BY(mu_);
};

// The shared durable runner over `universe`, a strictly (a, b)-sorted pair
// list: every pair, or the prefilter's survivors. The caller has validated
// the input and `options` and fingerprinted the channels. Checkpoint
// records for pairs outside the universe are skipped — a plain full-sweep
// checkpoint shares the same config hash, so encountering them is
// legitimate, not corruption.
Result<DurableOutcome> RunDurableJob(
    const std::vector<TimeSeries>& channels, const TycosParams& params,
    TycosVariant variant, uint64_t seed, const RunContext& ctx,
    const DurableJobOptions& options, uint64_t fingerprint,
    const std::vector<std::pair<int, int>>& universe) {
  const int64_t total_pairs = static_cast<int64_t>(universe.size());

  // Maps a pair to its position in the universe, or -1 when outside it.
  const auto universe_pos = [&](int a, int b) -> int64_t {
    const std::pair<int, int> key(a, b);
    const auto it = std::lower_bound(universe.begin(), universe.end(), key);
    if (it == universe.end() || *it != key) return -1;
    return it - universe.begin();
  };

  // --- Open the checkpoint and partition finished vs. todo ---------------
  // Open reads the file once: it validates it, checks that this run wrote
  // it and cuts a torn tail, and its records are the pairs this run skips.
  // An empty universe has nothing to resume or record, so it leaves the
  // path untouched.
  std::optional<CheckpointWriter> writer;
  std::vector<char> done(static_cast<size_t>(total_pairs), 0);
  std::vector<PairwiseEntry> entries;
  if (total_pairs > 0) {
    CheckpointWriter::Options wopts;
    wopts.identity = {HashSearchConfig(params, variant, seed), fingerprint,
                      seed, static_cast<uint32_t>(channels.size()),
                      channels[0].size()};
    wopts.fsync_each_record = options.fsync_each_record;
    Result<CheckpointWriter> opened =
        CheckpointWriter::Open(options.checkpoint_path, wopts);
    if (!opened.ok()) return opened.status();
    writer.emplace(std::move(opened.value()));
    entries.reserve(writer->records().size());
    for (const CheckpointedPair& cp : writer->records()) {
      const int64_t idx = universe_pos(cp.entry.a, cp.entry.b);
      if (idx < 0) continue;  // outside this run's universe
      done[static_cast<size_t>(idx)] = 1;
      entries.push_back(cp.entry);
    }
  }
  // The not-yet-checkpointed pairs, in universe order.
  std::vector<std::pair<int, int>> todo;
  todo.reserve(static_cast<size_t>(total_pairs) - entries.size());
  for (int64_t i = 0; i < total_pairs; ++i) {
    if (!done[static_cast<size_t>(i)]) {
      todo.push_back(universe[static_cast<size_t>(i)]);
    }
  }

  // Voluntary pause: only take on the first max_pairs_this_run pairs.
  bool paused = false;
  if (options.max_pairs_this_run > 0 &&
      static_cast<int64_t>(todo.size()) > options.max_pairs_this_run) {
    todo.resize(static_cast<size_t>(options.max_pairs_this_run));
    paused = true;
  }

  static obs::Counter* resumed_counter = obs::GetCounter("jobs.pairs_resumed");
  static obs::Counter* run_counter = obs::GetCounter("jobs.pairs_run");
  static obs::Counter* shed_counter = obs::GetCounter("jobs.pairs_shed");
  static obs::Counter* watchdog_counter =
      obs::GetCounter("jobs.watchdog_timeouts");
  static obs::Counter* ckpt_records_counter =
      obs::GetCounter("jobs.checkpoint_records");
  static obs::Counter* ckpt_bytes_counter =
      obs::GetCounter("jobs.checkpoint_bytes");
  resumed_counter->Add(static_cast<int64_t>(entries.size()));

  // --- Sweep the remaining pairs -------------------------------------------
  JobLedger ledger(writer.has_value() ? &*writer : nullptr);
  // Pairs admitted and not yet finished, overlaid on the probe's queue
  // depth.
  std::atomic<int64_t> in_flight{0};

  PairSweepHooks hooks;
  // Admission: the shed ladder's level, params and budget for the pair,
  // plus the watchdog slice for each of its units.
  hooks.admit = [&](int64_t) -> std::optional<PairAdmission> {
    in_flight.fetch_add(1, std::memory_order_relaxed);
    std::optional<PairAdmission> admission =
        Admit(options.shed, options.probe,
              in_flight.load(std::memory_order_relaxed), params,
              options.pair_evaluation_budget, ctx.evaluation_budget());
    if (!admission.has_value()) {
      // Refused, not failed: the pair stays un-checkpointed and a later,
      // less-loaded resume picks it up.
      in_flight.fetch_sub(1, std::memory_order_relaxed);
      shed_counter->Add(1);
      ledger.Fold([](DurableJobStats& s) { ++s.pairs_refused; });
      return std::nullopt;
    }
    admission->time_slice_s = options.pair_time_slice_s;
    run_counter->Add(1);
    ledger.Fold([level = admission->shed_level](DurableJobStats& s) {
      ++s.pairs_run;
      if (level > 0) ++s.pairs_degraded;
    });
    return admission;
  };

  // Judges each unit once it ran under its slice and budget.
  hooks.unit_done = [&](int64_t i, int unit, const Result<StopReason>& end) {
    const auto [a, b] = todo[static_cast<size_t>(i)];
    // A failed unit is isolated to its pair and the sweep goes on;
    // un-checkpointed, the pair reruns on resume.
    if (!end.ok()) {
      ledger.Fail(i, unit, {a, b, end.status()});
      return false;
    }
    // A deterministic outcome is final (and checkpointed). A cut one is
    // kept only when the global context fired: the sweep is ending, and
    // the partial output rides along (never checkpointed — it is
    // timing-dependent).
    if (!IsTimingDependent(end.value()) || ctx.ShouldStop(0).has_value()) {
      return true;
    }
    // Otherwise the unit's own watchdog slice expired.
    watchdog_counter->Add(1);
    ledger.Fold([](DurableJobStats& s) { ++s.watchdog_timeouts; });
    const Status overran = Status::Unavailable(
        "pair (" + std::to_string(a) + ", " + std::to_string(b) +
        ") exceeded its " + std::to_string(options.pair_time_slice_s) +
        "s watchdog time slice");
    ledger.Fail(i, unit, {a, b, overran});
    return false;
  };

  // Checkpointing: only deterministic outcomes persist.
  hooks.finish = [&](int64_t, const PairOutcome* outcome) {
    in_flight.fetch_sub(1, std::memory_order_relaxed);
    if (outcome != nullptr && !IsTimingDependent(outcome->stop_reason)) {
      ledger.Append({outcome->entry, outcome->stop_reason});
    }
  };

  Result<PairwiseResult> swept =
      SweepPairs(channels, todo, params, variant, seed, ctx, hooks);
  if (!swept.ok()) return swept.status();

  // --- Fold the stats and merge with the resumed entries -----------------
  DurableOutcome out;
  DurableJobStats& stats = out.stats;
  stats = ledger.Take();
  stats.pairs_total = total_pairs;
  stats.pairs_resumed = static_cast<int64_t>(entries.size());
  if (writer.has_value()) {
    const Status close_st = writer->Close();
    if (!close_st.ok() && stats.checkpoint_error.ok()) {
      stats.checkpoint_error = close_st;
    }
    stats.checkpoint_records_written = writer->records_written();
    stats.checkpoint_bytes_written = writer->bytes_written();
    ckpt_records_counter->Add(writer->records_written());
    ckpt_bytes_counter->Add(writer->bytes_written());
  }

  PairwiseResult& result = out.result;
  result = std::move(swept.value());
  result.entries.insert(result.entries.end(), entries.begin(), entries.end());
  SortPairwiseEntries(&result.entries);
  result.pairs_searched = static_cast<int64_t>(result.entries.size());
  result.pairs_skipped = total_pairs - result.pairs_searched;
  if (paused && result.stop_reason == StopReason::kCompleted) {
    result.stop_reason = StopReason::kPaused;
  }
  result.partial = result.stop_reason != StopReason::kCompleted ||
                   result.pairs_skipped > 0 || stats.pairs_failed > 0;
  return out;
}

}  // namespace

Result<DurableOutcome> ResumePairwiseSearch(
    const std::vector<TimeSeries>& channels, const TycosParams& params,
    TycosVariant variant, uint64_t seed, const RunContext& ctx,
    const DurableJobOptions& options) {
  Status st = ValidatePairwiseChannels(channels);
  if (!st.ok()) return st;
  st = params.Validate(channels[0].size());
  if (!st.ok()) return st;
  st = options.Validate();
  if (!st.ok()) return st;
  return RunDurableJob(channels, params, variant, seed, ctx, options,
                       FingerprintChannels(channels),
                       AllChannelPairs(static_cast<int>(channels.size())));
}

Result<AllPairsJobOutcome> ResumeAllPairsSearch(
    const std::vector<TimeSeries>& channels, const TycosParams& params,
    TycosVariant variant, uint64_t seed, const RunContext& ctx,
    const AllPairsJobOptions& options) {
  Status st = options.durable.Validate();
  if (!st.ok()) return st;
  st = ValidatePairwiseChannels(channels);
  if (!st.ok()) return st;
  st = params.Validate(channels[0].size());
  if (!st.ok()) return st;

  const int64_t series_length = channels[0].size();
  const PrefilterParams pf =
      ResolveAllPairsPrefilter(options.prefilter, params, series_length);
  st = pf.Validate(series_length);
  if (!st.ok()) return st;
  const double threshold = ResolvePearsonThreshold(pf, params.sigma);

  const uint64_t fingerprint = FingerprintChannels(channels);
  const int n = static_cast<int>(channels.size());
  const RunIdentity survivor_run = {
      HashPrefilterConfig(params, variant, seed, pf), fingerprint, seed,
      static_cast<uint32_t>(n), series_length};
  const int64_t full_pairs = static_cast<int64_t>(n) * (n - 1) / 2;
  const std::string survivor_path =
      SurvivorPathFor(options.durable.checkpoint_path);

  AllPairsJobOutcome out;

  // --- Obtain the survivor universe: persisted list, or fresh cascade ----
  // The survivor list is fully derived data (a deterministic function of
  // the channels and config), so a file that fails validation — truncated,
  // bit-flipped, or bound to another run — is never fatal: the typed
  // rejection is recorded in `survivors_rejected` and the cascade runs
  // fresh, overwriting the bad file on completion. It must never be
  // silently treated as an empty universe, which would skip every pair.
  static obs::Counter* rejected_counter =
      obs::GetCounter("jobs.survivors_rejected");
  Result<SurvivorData> loaded = LoadSurvivorList(survivor_path);
  const Status usable =
      loaded.ok() ? CheckSameRun(loaded.value().identity, survivor_run,
                                 "survivor list " + survivor_path)
                  : loaded.status();
  if (usable.ok()) {
    out.survivors = std::move(loaded.value().pairs);
    out.survivors_resumed = true;
    out.prefilter.channels = n;
    out.prefilter.pairs_total = full_pairs;
    out.prefilter.threshold = threshold;
  } else if (usable.code() != StatusCode::kNotFound) {
    out.survivors_rejected = usable;  // typed, never fatal
    rejected_counter->Add(1);
  }
  if (!out.survivors_resumed) {
    Result<PrefilterOutcome> cascade =
        RunPrefilter(channels, pf, threshold, ctx);
    if (!cascade.ok()) return cascade.status();
    out.prefilter = cascade.value().stats;
    if (cascade.value().stop.has_value()) {
      // Cut short: the survivor list is incomplete and must NOT persist —
      // its missing pairs would read as pruned forever. Nothing is known,
      // so nothing runs and nothing is checkpointed.
      out.durable.result.partial = true;
      out.durable.result.stop_reason = *cascade.value().stop;
      out.durable.result.pairs_skipped = full_pairs;
      out.durable.stats.pairs_total = full_pairs;
      return out;
    }
    out.survivors = cascade.value().PairList();
    st = SaveSurvivorList(survivor_path, {survivor_run, out.survivors},
                          options.durable.fsync_each_record);
    // A survivor list that cannot persist breaks the resume contract
    // (pruned pairs would be recomputed, but worse, a concurrent crash
    // would leave a checkpoint with no universe); fail loudly now, while
    // nothing has been searched.
    if (!st.ok()) return st;
  }

  out.pairs_pruned =
      full_pairs - static_cast<int64_t>(out.survivors.size());
  static obs::Counter* pruned_counter = obs::GetCounter("jobs.pairs_pruned");
  pruned_counter->Add(out.pairs_pruned);

  Result<DurableOutcome> durable =
      RunDurableJob(channels, params, variant, seed, ctx, options.durable,
                    fingerprint, out.survivors);
  if (!durable.ok()) return durable.status();
  out.durable = std::move(durable.value());
  return out;
}

}  // namespace jobs
}  // namespace tycos
