#include "sim/similarity.h"

#include "parallel/pool.h"
#include "util/check.h"

namespace alem {
namespace {

// Chunk size for batch evaluation. Large enough that per-chunk overhead
// (span bookkeeping, scratch-buffer warmup in the overrides) is amortized,
// small enough that a few thousand pairs still fan out across workers.
constexpr size_t kBatchGrain = 256;

}  // namespace

void SimilarityFunction::EvaluateBatch(
    std::span<const AttributeProfile* const> left,
    std::span<const AttributeProfile* const> right, float* out) const {
  ALEM_CHECK_EQ(left.size(), right.size());
  if (left.empty()) return;
  parallel::ParallelFor(
      0, left.size(), kBatchGrain,
      [this, &left, &right, out](size_t begin, size_t end, size_t chunk) {
        (void)chunk;
        EvaluateChunk(left.data(), right.data(), begin, end, out);
      },
      "sim.batch");
}

void SimilarityFunction::EvaluateChunk(const AttributeProfile* const* left,
                                       const AttributeProfile* const* right,
                                       size_t begin, size_t end,
                                       float* out) const {
  for (size_t i = begin; i < end; ++i) {
    out[i] = static_cast<float>(Similarity(*left[i], *right[i]));
  }
}

uint64_t SimRegistryFingerprint() {
  // FNV-1a over the registry version and the ordered function names.
  uint64_t hash = 1469598103934665603ULL;
  auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash ^= bytes[i];
      hash *= 1099511628211ULL;
    }
  };
  const uint32_t version = kSimRegistryVersion;
  mix(&version, sizeof(version));
  for (const SimilarityFunction* function : AllSimilarityFunctions()) {
    const std::string_view name = function->name();
    mix(name.data(), name.size());
    mix("|", 1);
  }
  return hash;
}

}  // namespace alem
