// StreamingTycos: online correlation search over an unbounded pair stream.
//
// The paper positions TYCOS as "memory efficient and suitable for big
// datasets" thanks to its bottom-up scan; this driver makes that concrete:
// samples are appended in chunks, each search pass covers only the
// not-yet-searched region plus a rescan margin of s_max + td_max samples
// (the farthest any window can straddle a chunk boundary), and older
// samples are discarded. Memory is O(s_max + td_max + chunk), independent
// of the stream length.
//
// Resilience: Append() validates its input and applies a DataPolicy to
// non-finite samples (sensors flatline, packets drop) instead of poisoning
// the estimators, and an optional RunContext bounds each search pass so one
// expensive pass cannot stall the ingest path.

#ifndef TYCOS_SEARCH_STREAMING_H_
#define TYCOS_SEARCH_STREAMING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/data_policy.h"
#include "core/time_series.h"
#include "core/window_set.h"
#include "search/params.h"
#include "search/tycos.h"

namespace tycos {

class StreamingTycos {
 public:
  // Graceful construction: validates the length-independent parameter shape,
  // the trigger and the policy, returning InvalidArgument instead of
  // crashing. kDropRow is refused: a dropped row would move every later
  // sample off its stream position (CSV ingest keeps it).
  static Result<std::unique_ptr<StreamingTycos>> Create(
      const TycosParams& params, TycosVariant variant, uint64_t seed = 42,
      int64_t search_trigger = 0, DataPolicy policy = DataPolicy::kReject);

  // A search pass runs whenever at least `search_trigger` unsearched
  // samples have accumulated (0 = auto: 2 × s_max). Flush() forces a final
  // pass over whatever remains. CHECKs on what Create() refuses; prefer
  // Create() where input is untrusted.
  StreamingTycos(const TycosParams& params, TycosVariant variant,
                 uint64_t seed = 42, int64_t search_trigger = 0,
                 DataPolicy policy = DataPolicy::kReject);

  // Appends paired samples and searches when triggered. Mismatched lengths
  // are an InvalidArgument (the stream is desynchronized; nothing is
  // buffered). Non-finite samples follow the ingest policy:
  //   kReject       — InvalidArgument naming the offending stream position;
  //                   the chunk is not buffered.
  //   kInterpolate  — non-finite samples are repaired linearly from the
  //                   nearest finite neighbours, using the last buffered
  //                   sample as left context; a trailing non-finite run is
  //                   clamped to the last finite value (the stream cannot
  //                   wait for a future right neighbour).
  Status Append(const std::vector<double>& xs, const std::vector<double>& ys);

  // Searches the remaining unsearched tail (call at end of stream).
  Status Flush();

  // Optional execution limits applied to every subsequent search pass. The
  // pointed-to context must outlive its use; pass nullptr to clear. On a
  // partial pass the searched region still advances (the stream moves on),
  // and the pass is reported through last_pass_partial().
  void set_run_context(const RunContext* ctx) { run_context_ = ctx; }

  // Windows found so far, in *global* stream coordinates.
  const WindowSet& results() const { return results_; }

  // Samples accepted into the stream so far; a refused chunk adds none.
  int64_t samples_seen() const { return samples_seen_; }
  int64_t retained_samples() const {
    return static_cast<int64_t>(buffer_x_.size());
  }
  int64_t search_passes() const { return search_passes_; }

  // Resilience telemetry: how ingest repaired hostile input, and whether
  // the most recent search pass was cut short (and why).
  const SanitizeStats& ingest_stats() const { return ingest_stats_; }
  DataPolicy policy() const { return policy_; }
  bool last_pass_partial() const { return last_pass_partial_; }
  StopReason last_stop_reason() const { return last_stop_reason_; }

 private:
  struct Validated {};  // tag: inputs already vetted by the caller

  StreamingTycos(Validated, const TycosParams& params, TycosVariant variant,
                 uint64_t seed, int64_t search_trigger, DataPolicy policy);

  Status MaybeSearch(bool force);

  TycosParams params_;
  TycosVariant variant_;
  uint64_t seed_;
  int64_t search_trigger_;
  DataPolicy policy_;
  const RunContext* run_context_ = nullptr;

  // Retained tail of the stream; buffer index 0 is global index offset_.
  std::vector<double> buffer_x_;
  std::vector<double> buffer_y_;
  int64_t offset_ = 0;
  int64_t samples_seen_ = 0;
  int64_t searched_until_ = 0;  // global index; everything before is done
  int64_t search_passes_ = 0;

  SanitizeStats ingest_stats_;
  bool last_pass_partial_ = false;
  StopReason last_stop_reason_ = StopReason::kCompleted;

  WindowSet results_;
};

}  // namespace tycos

#endif  // TYCOS_SEARCH_STREAMING_H_
