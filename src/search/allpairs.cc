#include "search/allpairs.h"

#include <algorithm>

namespace tycos {

PrefilterParams ResolveAllPairsPrefilter(const PrefilterParams& prefilter,
                                         const TycosParams& params,
                                         int64_t series_length) {
  PrefilterParams pf = prefilter;
  if (pf.window <= 0) pf.window = std::min<int64_t>(128, series_length);
  if (pf.hop <= 0) pf.hop = std::max<int64_t>(pf.window / 2, 1);
  // The cascade must preserve every delay TYCOS can report, so the probe
  // band is never narrower than the search's own delay range.
  if (pf.td_max < 0) pf.td_max = params.td_max;
  if (pf.num_threads == 1) pf.num_threads = params.num_threads;
  return pf;
}

}  // namespace tycos
