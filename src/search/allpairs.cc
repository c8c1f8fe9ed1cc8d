#include "search/allpairs.h"

namespace tycos {

PrefilterParams ResolveAllPairsPrefilter(const PrefilterParams& prefilter,
                                         const TycosParams& params,
                                         int64_t series_length) {
  PrefilterParams pf = prefilter;
  pf.window = prefilter.ResolvedWindow(series_length);
  pf.hop = prefilter.ResolvedHop(series_length);
  // The cascade must preserve every delay TYCOS can report, so the probe
  // band is never narrower than the search's own delay range.
  if (pf.td_max < 0) pf.td_max = params.td_max;
  if (pf.num_threads == 1) pf.num_threads = params.num_threads;
  return pf;
}

}  // namespace tycos
