// The joint-entropy estimator behind the entropy-ratio MI normalization
// (Eq. 18).

#ifndef TYCOS_MI_ENTROPY_H_
#define TYCOS_MI_ENTROPY_H_

#include <span>

namespace tycos {

// Shannon entropy (nats) of the joint (x, y) sample from an equal-width 2-D
// histogram with ceil(sqrt(m)) bins per dimension. Always >= 0; this is the
// H_w used by the entropy-ratio normalization.
double HistogramJointEntropy(std::span<const double> xs,
                             std::span<const double> ys);

}  // namespace tycos

#endif  // TYCOS_MI_ENTROPY_H_
