// DataPolicy: what ingest does with hostile samples — non-finite values
// (nan / inf / overflowed literals) and missing fields. Real sensor feeds
// are gappy and noisy; the estimators downstream assume finite input, so
// every ingest edge (CSV parsing, streaming Append) routes through one of
// these policies instead of silently materializing poison values. Streaming
// takes kReject or kInterpolate only: a dropped row would shift every later
// stream position.

#ifndef TYCOS_CORE_DATA_POLICY_H_
#define TYCOS_CORE_DATA_POLICY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace tycos {

enum class DataPolicy {
  kReject,       // fail fast with InvalidArgument naming the first bad value
  kDropRow,      // delete the whole row (all columns) containing a bad value
                 // (CSV only)
  kInterpolate,  // linearly interpolate from the nearest finite neighbours;
                 // leading/trailing gaps are clamped to the nearest finite
};

// Human-readable name ("reject", "drop_row", "interpolate").
const char* DataPolicyName(DataPolicy policy);

// Counters describing what a sanitization pass did.
struct SanitizeStats {
  int64_t non_finite = 0;    // hostile values encountered
  int64_t rows_dropped = 0;  // rows removed under kDropRow
  int64_t interpolated = 0;  // values replaced under kInterpolate
};

// Applies `policy` to row-aligned columns (all the same length, NaN marking
// the missing/hostile entries) in place. Under kReject any non-finite entry
// is an error naming the first bad value in row order — the whole batch is
// still scanned first so `stats` counts every bad value, matching the
// accounting of the non-rejecting policies; under kDropRow the row is
// removed from every column; under
// kInterpolate each column is repaired independently (a column with no
// finite value at all is an error). `stats` is accumulated when non-null.
Status SanitizeColumns(std::vector<std::vector<double>>* columns,
                       DataPolicy policy, SanitizeStats* stats = nullptr);

// Single-column convenience wrapper over SanitizeColumns.
Status SanitizeValues(std::vector<double>* values, DataPolicy policy,
                      SanitizeStats* stats = nullptr);

}  // namespace tycos

#endif  // TYCOS_CORE_DATA_POLICY_H_
