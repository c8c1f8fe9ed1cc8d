#include "service/cache.h"

#include "common/hash.h"

namespace tycos {
namespace service {

namespace {

uint64_t FnvString(uint64_t h, const std::string& s) {
  // Length first so ("ab","c") and ("a","bc") cannot collide by
  // concatenation.
  const uint64_t n = s.size();
  h = Fnv1a(&n, sizeof(n), h);
  return Fnv1a(s.data(), s.size(), h);
}

}  // namespace

size_t ResultCache::Hash::operator()(const CacheKey& k) const {
  uint64_t h = FnvString(kFnv1aBasis, k.channel_a);
  h = FnvString(h, k.channel_b);
  h = Fnv1a(&k.config_hash, sizeof(k.config_hash), h);
  h = Fnv1a(&k.epoch_a, sizeof(k.epoch_a), h);
  h = Fnv1a(&k.epoch_b, sizeof(k.epoch_b), h);
  return static_cast<size_t>(h);
}

std::optional<SearchOutcome> ResultCache::Lookup(const CacheKey& key) {
  MutexLock lock(&mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  ring_.splice(ring_.begin(), ring_, it->second);  // refresh LRU position
  return it->second->outcome;
}

void ResultCache::Insert(const CacheKey& key, const SearchOutcome& outcome) {
  if (capacity_ == 0) return;
  if (outcome.partial) return;  // timing-dependent; never cacheable
  MutexLock lock(&mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Identical key ⇒ identical outcome (determinism); just refresh.
    ring_.splice(ring_.begin(), ring_, it->second);
    return;
  }
  ring_.push_front(Entry{key, outcome});
  index_.emplace(key, ring_.begin());
  if (index_.size() > capacity_) {
    index_.erase(ring_.back().key);
    ring_.pop_back();
  }
}

size_t ResultCache::size() const {
  MutexLock lock(&mu_);
  return index_.size();
}

}  // namespace service
}  // namespace tycos
