// All-pairs discovery at production channel counts: the prefilter cascade
// (search/prefilter.h) in front of the pair sweep. RunPrefilter prunes the
// O(C²) pair universe to the pairs that can plausibly hold a correlated
// window, then SearchPairList runs full TYCOS on the survivors only —
// per-pair results are bit-identical to a full PairwiseSearch over the
// same channels (PairwiseSeed depends only on (seed, a, b)).
//
// jobs/durable_pairwise.h (ResumeAllPairsSearch) runs the two steps with a
// persisted survivor list and checkpointed pairs; a caller that needs no
// durability calls RunPrefilter and SearchPairList itself.

#ifndef TYCOS_SEARCH_ALLPAIRS_H_
#define TYCOS_SEARCH_ALLPAIRS_H_

#include <cstdint>

#include "search/params.h"
#include "search/prefilter.h"

namespace tycos {

// Resolves the cascade's auto fields against the search: window/hop from
// the series length, td_max from params.td_max, num_threads from
// params.num_threads when left at 1. (The Pearson threshold comes from
// params.sigma × mi_conservativeness via ResolvePearsonThreshold.) Exposed
// so the durable runner, the benches and tests derive the identical
// cascade configuration.
PrefilterParams ResolveAllPairsPrefilter(const PrefilterParams& prefilter,
                                         const TycosParams& params,
                                         int64_t series_length);

}  // namespace tycos

#endif  // TYCOS_SEARCH_ALLPAIRS_H_
