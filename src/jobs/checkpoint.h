// Crash-safe on-disk files for durable pairwise search jobs — the pair
// checkpoint and the prefilter's survivor list — and their binding to the
// run that wrote them.
//
// Both files open with the same prefix: a magic, a format version and the
// writing run's RunIdentity (channel count, config hash, data fingerprint,
// seed, series length). One codec writes and reads that prefix for both
// formats, and one comparison, CheckSameRun, decides whether a run may use
// a file: every identity field must be equal.
//
// A checkpoint is that prefix sealed by its own checksum (the header),
// created atomically via write-temp + rename, followed by an append-only
// log of per-pair records, each length-prefixed and FNV-checksummed. The
// format is designed around one failure model — the process dies at an
// arbitrary instant (SIGKILL, OOM-kill, power loss with fsync enabled) —
// and one recovery contract:
//
//   * a torn *trailing* record (the append that was in flight when the
//     process died) is detected by its length prefix running past EOF or
//     its checksum failing, and is silently dropped: the pair simply reruns
//     on resume. Reopening the file for appending first cuts the torn tail
//     (atomically, via the same write-temp + rename dance used to create
//     the header), so a new record can never land after the garbage and
//     turn it into interior corruption on the next load;
//   * anything else that fails validation — bad magic, unknown version, a
//     corrupt header, a checksum mismatch on an *interior* record — is real
//     corruption and rejects the whole file with IoError, never a partial
//     load. A checkpoint is trusted entirely or not at all.
//
// A resumed run reads its checkpoint once, in CheckpointWriter::Open, so
// the records it skips are the records it appends after.
//
// Doubles are stored as raw IEEE-754 bit patterns, so a resumed run
// reconstructs scores bit-identically. All I/O goes through Result<> —
// tools/lint.py bans unchecked file operations in src/jobs/.

#ifndef TYCOS_JOBS_CHECKPOINT_H_
#define TYCOS_JOBS_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/time_series.h"
#include "search/pairwise.h"
#include "search/params.h"
#include "search/prefilter.h"
#include "search/tycos.h"

namespace tycos {
namespace jobs {

// Bumped whenever the on-disk layout changes; a loader never guesses at an
// unknown version.
inline constexpr uint32_t kCheckpointFormatVersion = 1;

// One checkpointed pair: the finished entry (including its shed level) and
// how its search ended.
struct CheckpointedPair {
  PairwiseEntry entry;
  StopReason stop_reason = StopReason::kCompleted;
};

// What binds a durable file to the run that wrote it.
struct RunIdentity {
  // HashSearchConfig for a checkpoint, HashPrefilterConfig for a survivor
  // list.
  uint64_t config_hash = 0;
  uint64_t data_fingerprint = 0;  // FingerprintChannels
  uint64_t seed = 0;
  // The input's shape. A loader bounds every persisted (a, b) by the
  // channel count before it trusts the record.
  uint32_t num_channels = 0;
  int64_t series_length = 0;

  bool operator==(const RunIdentity&) const = default;
};

// Ok when `file`, the identity read from the durable file `what` names
// ("checkpoint <path>"), equals `run`'s; otherwise InvalidArgument saying
// the file was written by a different run and which fields differ.
Status CheckSameRun(const RunIdentity& file, const RunIdentity& run,
                    const std::string& what);

// A successfully loaded checkpoint.
struct CheckpointData {
  RunIdentity identity;
  std::vector<CheckpointedPair> pairs;  // first record per pair
  // Bytes of torn trailing record dropped during the load (0 on a clean
  // file) — evidence the writing process died mid-append.
  int64_t dropped_tail_bytes = 0;
};

// Order-independent fingerprint of the input data: channel count, length,
// names, and every sample's bit pattern. Two channel sets fingerprint
// equal iff a search over them is guaranteed to see identical inputs.
uint64_t FingerprintChannels(const std::vector<TimeSeries>& channels);

// Hash of every search-result-affecting knob of (params, variant, seed).
// num_threads is deliberately excluded: results are thread-count invariant,
// so a checkpoint written at 8 threads resumes fine at 1.
uint64_t HashSearchConfig(const TycosParams& params, TycosVariant variant,
                          uint64_t seed);

// --- Survivor-list persistence (the all-pairs prefilter cascade) --------
//
// ResumeAllPairsSearch persists the prefilter's survivor list next to the
// pair checkpoint (<checkpoint_path>.survivors) so a resumed run skips
// BOTH pruned pairs (never recomputing the cascade) and checkpointed
// pairs. The file is small and written in one atomic shot (write-temp +
// rename, whole-file checksum): it is either fully valid or treated as
// absent-equivalent corruption — there is no append path, hence no torn
// tail to tolerate. A survivor list is only ever written by a prefilter
// run that COMPLETED; a cascade cut short by a RunContext must never
// persist (its missing pairs would masquerade as pruned).

inline constexpr uint32_t kSurvivorFormatVersion = 1;

// A successfully loaded survivor list.
struct SurvivorData {
  RunIdentity identity;
  std::vector<std::pair<int, int>> pairs;  // strictly (a, b)-sorted
};

// Hash of everything that determines the survivor list: HashSearchConfig
// plus every result-affecting prefilter knob (num_threads excluded — the
// cascade is thread-count deterministic). Callers hash the RESOLVED
// prefilter params (ResolveAllPairsPrefilter), so auto fields that
// resolve differently against different data rebind the file.
uint64_t HashPrefilterConfig(const TycosParams& params, TycosVariant variant,
                             uint64_t seed, const PrefilterParams& prefilter);

// Canonical path of the survivor list persisted next to a checkpoint. The
// ".survivors" suffix is defined here and nowhere else: tools/lint.py
// --jobs-io confines survivor-file naming and I/O to this module, exactly
// as it confines checkpoint I/O.
std::string SurvivorPathFor(const std::string& checkpoint_path);

// Loads and fully validates `path`: NotFound when absent, IoError on any
// corruption (bad magic/version/checksum, out-of-range or unsorted
// pairs) — a survivor list is trusted entirely or not at all.
Result<SurvivorData> LoadSurvivorList(const std::string& path);

// In-memory parsers behind the file loaders. These are the fuzzing entry
// points (tests/fuzz/): they must return a typed Status on ANY byte
// sequence — never crash, never allocate proportionally to an attacker-
// controlled count field. `label` names the source in error messages.
Result<CheckpointData> ParseCheckpointBytes(const uint8_t* data, size_t n,
                                            const std::string& label);
Result<SurvivorData> ParseSurvivorBytes(const uint8_t* data, size_t n,
                                        const std::string& label);

// Atomically writes `data` to `path`. With `sync`, fsyncs before the
// rename so the list survives power loss.
Status SaveSurvivorList(const std::string& path, const SurvivorData& data,
                        bool sync);

// Loads and fully validates `path`. See the file comment for the
// tolerate-vs-reject policy.
Result<CheckpointData> LoadCheckpoint(const std::string& path);

// Appends pair records to a checkpoint file, creating it (atomically) when
// absent and binding it to the caller's run when present. Records are
// flushed to the OS after every Append, so a SIGKILL loses at most the
// record being written; set `fsync_each_record` to also survive power loss
// at a heavy I/O cost.
class CheckpointWriter {
 public:
  struct Options {
    RunIdentity identity;
    bool fsync_each_record = false;
  };

  // Opens `path` for appending, reading it once. An absent file is created
  // holding only the header (write-temp + rename; fsynced first when
  // fsync_each_record is set). An existing file is validated in full —
  // IoError on corruption, as LoadCheckpoint — and its identity must equal
  // options.identity (CheckSameRun: InvalidArgument otherwise), so a
  // checkpoint never silently absorbs records from a different run. A torn
  // trailing record is cut before the first new append, and records()
  // holds what the file kept. A file that exists but cannot be read fails
  // with IoError rather than being recreated over the persisted records.
  static Result<CheckpointWriter> Open(const std::string& path,
                                       const Options& options);

  CheckpointWriter(CheckpointWriter&& other) noexcept;
  CheckpointWriter& operator=(CheckpointWriter&&) = delete;
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;
  ~CheckpointWriter();

  // Serializes one finished pair and flushes it. Thread-compatible, not
  // thread-safe: callers serialize Appends (the durable runner holds a
  // mutex across this call).
  Status Append(const CheckpointedPair& pair);

  // Flushes and closes the underlying file; further Appends fail. Called
  // by the destructor when omitted (destructor swallows the status).
  Status Close();

  // The records the file held when Open returned, first record per pair
  // (empty for a new file): the pairs a resumed run skips.
  const std::vector<CheckpointedPair>& records() const { return records_; }

  int64_t records_written() const { return records_written_; }
  int64_t bytes_written() const { return bytes_written_; }

 private:
  CheckpointWriter(std::FILE* file, const Options& options,
                   std::vector<CheckpointedPair> records)
      : file_(file), options_(options), records_(std::move(records)) {}

  std::FILE* file_ = nullptr;
  Options options_;
  std::vector<CheckpointedPair> records_;
  int64_t records_written_ = 0;
  int64_t bytes_written_ = 0;
};

}  // namespace jobs
}  // namespace tycos

#endif  // TYCOS_JOBS_CHECKPOINT_H_
