// Content-addressed persistent cache for prepared datasets.
//
// A prepared dataset's post-blocking pairs, their ground truth and its float
// feature matrix are deterministic in (synth profile, data_seed, scale), the
// blocking join and the similarity registry, so all three can be persisted
// once and reloaded on every later run: a warm PrepareDataset is one file
// read plus the Boolean featurization, with no generation, blocking or
// similarity evaluation. Entries are keyed by a fingerprint of everything
// they depend on (FeatureCacheKey plus kFeatureCacheEntryVersion,
// kBlockingVersion and kSynthVersion); any semantic change (a
// similarity-function tweak bumps kSimRegistryVersion, a blocking change
// bumps kBlockingVersion, a generator change bumps kSynthVersion, a profile
// edit changes the profile fingerprint, a layout change bumps
// kFeatureCacheEntryVersion) changes the file name, so stale entries are
// simply never found.
//
// Robustness contract: a missing, truncated, corrupted, or wrong-shape
// cache file is a silent miss — the caller recomputes and overwrites.
// Writes go to a temp file and are renamed into place so a crashed or
// concurrent writer can never publish a partial entry.
//
// Observability: Load/Store bump the `featurize.cache.{hit,miss,write}`
// counters (no-ops while metrics are disabled, like every counter).

#ifndef ALEM_FEATURES_FEATURE_CACHE_H_
#define ALEM_FEATURES_FEATURE_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "features/feature_matrix.h"

namespace alem {

// Layout version of a cache entry (docs/featurization.md). Mixed into every
// file name, so entries written in an older layout are never found; bump it
// whenever the entry layout changes.
inline constexpr uint32_t kFeatureCacheEntryVersion = 2;

// Everything a cache entry is a pure function of.
struct FeatureCacheKey {
  std::string dataset_name;       // For a readable file name only.
  uint64_t profile_fingerprint = 0;  // synth::ProfileFingerprint
  uint64_t data_seed = 0;
  double scale = 1.0;
  uint64_t sim_fingerprint = 0;   // SimRegistryFingerprint()
  uint64_t num_dims = 0;

  // "<sanitized dataset_name>-<16 hex digest>.fmat".
  std::string FileName() const;
};

class FeatureCache {
 public:
  // A cache rooted at `dir`; empty = disabled (Load misses, Store no-ops).
  explicit FeatureCache(std::string dir);

  // Resolves the cache directory: `override_dir` when nonempty, else the
  // ALEM_CACHE_DIR environment variable, else "" (caching disabled).
  static std::string ResolveDir(const std::string& override_dir);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  // Loads the entry for `key` into *out and, when `pairs`/`truth` are
  // given, its candidate pairs and their labels. Returns false — and
  // counts a miss, leaving every output untouched — when disabled, absent,
  // unreadable, or invalid in any way: a checksum mismatch, a truth value
  // other than 0/1, a matrix width other than key.num_dims, or (when pairs
  // are requested) a pair count other than the matrix row count.
  bool Load(const FeatureCacheKey& key, FeatureMatrix* out,
            std::vector<RecordPair>* pairs = nullptr,
            std::vector<int>* truth = nullptr) const;

  // Persists `matrix` — and `pairs`/`truth`, one per matrix row, or both
  // empty for a matrix-only entry — under `key` (temp file + atomic
  // rename; creates the cache directory if needed). Returns false on any
  // I/O failure or mismatched sizes; failures are non-fatal to callers —
  // the cache is an optimization, not a store of record.
  bool Store(const FeatureCacheKey& key, const FeatureMatrix& matrix,
             const std::vector<RecordPair>& pairs = {},
             const std::vector<int>& truth = {}) const;

 private:
  std::string EntryPath(const FeatureCacheKey& key) const;

  std::string dir_;
};

}  // namespace alem

#endif  // ALEM_FEATURES_FEATURE_CACHE_H_
