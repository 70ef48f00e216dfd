// FNV-1a, 64-bit, one byte per multiply. The checksums of the on-disk
// formats (ALFM matrices, ALFC cache entries, ALSS snapshots), the feature
// cache's file names, and the profile / similarity-registry fingerprints
// all hash with it, so its bytes are part of those formats.

#ifndef ALEM_UTIL_FNV_H_
#define ALEM_UTIL_FNV_H_

#include <cstddef>
#include <cstdint>

namespace alem {

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ULL;

// Folds `size` bytes into a running hash; start from kFnvOffsetBasis.
inline uint64_t Fnv1aMix(uint64_t hash, const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace alem

#endif  // ALEM_UTIL_FNV_H_
