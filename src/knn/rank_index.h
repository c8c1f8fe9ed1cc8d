// RankIndex: a Fenwick-tree-backed dynamic multiset over a fixed value
// universe, supporting O(log n) insert / erase / closed-range count.
//
// The incremental KSG estimator (Section 7) uses one RankIndex per dimension
// to re-count a point's influenced marginal region after window edits,
// instead of rescanning the window.

#ifndef TYCOS_KNN_RANK_INDEX_H_
#define TYCOS_KNN_RANK_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tycos {

class RankIndex {
 public:
  // The universe is the multiset of values that may ever be inserted (for a
  // window search: every sample of the underlying series). Duplicates are
  // collapsed; the index starts empty.
  explicit RankIndex(std::vector<double> universe);

  // Adds one occurrence of `value`, which must belong to the universe.
  void Insert(double value);

  // Removes one occurrence of `value`; it must be currently present.
  void Erase(double value);

  // Rank of a universe value (its index among the sorted distinct values).
  // CHECKs membership. Callers that touch the same value repeatedly (the
  // incremental estimator's per-sample edits) can cache this and use the
  // *AtRank fast paths below to skip the per-edit binary search.
  size_t Rank(double value) const { return RankOf(value); }

  // Insert/erase by a rank previously obtained from Rank(). Trusted fast
  // path: `rank` must be a valid universe rank, and EraseAtRank requires an
  // occurrence to be present (same contract the value-based Erase CHECKs).
  void InsertAtRank(size_t rank);
  void EraseAtRank(size_t rank);

  // Number of stored values v with lo <= v <= hi (closed interval). Every
  // KSG marginal count shares these closed-interval semantics: the
  // incremental estimator counts through here, the batch estimator through
  // simd::MarginalCountsAll.
  int64_t CountInRange(double lo, double hi) const;

  // Number of stored values.
  int64_t size() const { return total_; }

 private:
  size_t RankOf(double value) const;  // exact rank; CHECKs membership
  int64_t PrefixSum(size_t idx) const;

  std::vector<double> unique_;  // sorted distinct universe values
  std::vector<int64_t> fenwick_;
  int64_t total_ = 0;
};

}  // namespace tycos

#endif  // TYCOS_KNN_RANK_INDEX_H_
