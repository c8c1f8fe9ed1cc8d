// 64-bit FNV-1a: the one byte hash behind the checkpoint and survivor-list
// seals, the config and data fingerprints, the prefilter's grid-cell keys,
// and the hash tables of the service cache and the evaluation memo. The
// seals and fingerprints are stored on disk, so the constants below are
// part of the file formats.

#ifndef TYCOS_COMMON_HASH_H_
#define TYCOS_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace tycos {

// The FNV-1a 64-bit offset basis: the hash of zero bytes.
inline constexpr uint64_t kFnv1aBasis = 14695981039346656037ull;

// FNV-1a over the n bytes at `data`, continuing from `h`. Chained calls
// hash the concatenation of their byte ranges.
inline uint64_t Fnv1a(const void* data, size_t n, uint64_t h = kFnv1aBasis) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace tycos

#endif  // TYCOS_COMMON_HASH_H_
