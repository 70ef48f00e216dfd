#include "features/feature_cache.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string_view>
#include <utility>

#include "blocking/jaccard_blocking.h"
#include "obs/obs.h"
#include "synth/generator.h"
#include "util/file.h"
#include "util/fnv.h"

namespace alem {
namespace {

// Entry layout (all fields little-endian host layout):
//   bytes 0..3   magic "ALFC"
//   bytes 4..7   uint32 kFeatureCacheEntryVersion
//   bytes 8..15  uint64 n = number of candidate pairs (0: matrix only)
//   bytes 16..23 uint64 FNV-1a hash of the pair section
//   bytes 24..   pair section: n x (uint32 left, uint32 right), then
//                n x uint8 truth (each 0 or 1)
//   then         the FeatureMatrix::Serialize blob ("ALFM", its own header
//                and payload checksum), to the end of the file
constexpr char kEntryMagic[4] = {'A', 'L', 'F', 'C'};
constexpr size_t kEntryHeaderSize = 4 + 4 + 8 + 8;
constexpr size_t kBytesPerPair = sizeof(RecordPair) + 1;
static_assert(sizeof(RecordPair) == 2 * sizeof(uint32_t),
              "pairs are stored as packed (left, right) uint32 pairs");

void CountCacheHit() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("featurize.cache.hit");
  counter.Add(1);
}

void CountCacheMiss() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("featurize.cache.miss");
  counter.Add(1);
}

void CountCacheWrite() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("featurize.cache.write");
  counter.Add(1);
}

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

std::string EncodeEntry(const FeatureMatrix& matrix,
                        const std::vector<RecordPair>& pairs,
                        const std::vector<int>& truth) {
  const uint64_t n = pairs.size();
  std::string section;
  section.reserve(static_cast<size_t>(n) * kBytesPerPair);
  AppendRaw(&section, pairs.data(), pairs.size() * sizeof(RecordPair));
  for (const int label : truth) section.push_back(static_cast<char>(label));
  const uint64_t checksum =
      Fnv1aMix(kFnvOffsetBasis, section.data(), section.size());

  const std::string matrix_blob = matrix.Serialize();
  std::string out;
  out.reserve(kEntryHeaderSize + section.size() + matrix_blob.size());
  AppendRaw(&out, kEntryMagic, sizeof(kEntryMagic));
  const uint32_t version = kFeatureCacheEntryVersion;
  AppendRaw(&out, &version, sizeof(version));
  AppendRaw(&out, &n, sizeof(n));
  AppendRaw(&out, &checksum, sizeof(checksum));
  out.append(section);
  out.append(matrix_blob);
  return out;
}

// Parses an EncodeEntry blob. Returns false (outputs untouched) on any
// malformed byte.
bool DecodeEntry(std::string_view blob, FeatureMatrix* matrix,
                 std::vector<RecordPair>* pairs, std::vector<int>* truth) {
  if (blob.size() < kEntryHeaderSize) return false;
  const char* cursor = blob.data();
  if (std::memcmp(cursor, kEntryMagic, sizeof(kEntryMagic)) != 0) {
    return false;
  }
  cursor += sizeof(kEntryMagic);
  uint32_t version = 0;
  uint64_t n = 0;
  uint64_t checksum = 0;
  std::memcpy(&version, cursor, sizeof(version));
  cursor += sizeof(version);
  std::memcpy(&n, cursor, sizeof(n));
  cursor += sizeof(n);
  std::memcpy(&checksum, cursor, sizeof(checksum));
  cursor += sizeof(checksum);
  if (version != kFeatureCacheEntryVersion) return false;
  // The pair section must fit in what follows the header (overflow-safe).
  if (n > (blob.size() - kEntryHeaderSize) / kBytesPerPair) return false;
  const size_t section_bytes = static_cast<size_t>(n) * kBytesPerPair;
  if (Fnv1aMix(kFnvOffsetBasis, cursor, section_bytes) != checksum) {
    return false;
  }
  const char* truth_bytes =
      cursor + static_cast<size_t>(n) * sizeof(RecordPair);
  for (size_t i = 0; i < n; ++i) {
    if (truth_bytes[i] != 0 && truth_bytes[i] != 1) return false;
  }
  FeatureMatrix parsed;
  if (!FeatureMatrix::Deserialize(
          blob.substr(kEntryHeaderSize + section_bytes), &parsed)) {
    return false;
  }
  pairs->resize(static_cast<size_t>(n));
  // memcpy with the null data() of an empty vector is undefined.
  if (n > 0) std::memcpy(pairs->data(), cursor, n * sizeof(RecordPair));
  truth->assign(truth_bytes, truth_bytes + n);
  *matrix = std::move(parsed);
  return true;
}

}  // namespace

std::string FeatureCacheKey::FileName() const {
  // Digest the entry layout version, the versions of the blocking join and
  // the generator that made the stored pairs and truth, and every field the
  // entry is a function of; the double is hashed by bit pattern (scales are
  // exact user inputs, not computed values).
  uint64_t hash = kFnvOffsetBasis;
  hash = Fnv1aMix(hash, &kFeatureCacheEntryVersion,
                  sizeof(kFeatureCacheEntryVersion));
  hash = Fnv1aMix(hash, &kBlockingVersion, sizeof(kBlockingVersion));
  hash = Fnv1aMix(hash, &kSynthVersion, sizeof(kSynthVersion));
  hash = Fnv1aMix(hash, dataset_name.data(), dataset_name.size());
  hash = Fnv1aMix(hash, &profile_fingerprint, sizeof(profile_fingerprint));
  hash = Fnv1aMix(hash, &data_seed, sizeof(data_seed));
  hash = Fnv1aMix(hash, &scale, sizeof(scale));
  hash = Fnv1aMix(hash, &sim_fingerprint, sizeof(sim_fingerprint));
  hash = Fnv1aMix(hash, &num_dims, sizeof(num_dims));

  std::string sanitized;
  sanitized.reserve(dataset_name.size());
  for (const char c : dataset_name) {
    sanitized.push_back(
        std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(hash));
  return sanitized + "-" + digest + ".fmat";
}

FeatureCache::FeatureCache(std::string dir) : dir_(std::move(dir)) {}

std::string FeatureCache::ResolveDir(const std::string& override_dir) {
  if (!override_dir.empty()) return override_dir;
  const char* env = std::getenv("ALEM_CACHE_DIR");
  return (env != nullptr && *env != '\0') ? std::string(env) : std::string();
}

std::string FeatureCache::EntryPath(const FeatureCacheKey& key) const {
  return dir_ + "/" + key.FileName();
}

bool FeatureCache::Load(const FeatureCacheKey& key, FeatureMatrix* out,
                        std::vector<RecordPair>* pairs,
                        std::vector<int>* truth) const {
  if (!enabled()) {
    CountCacheMiss();
    return false;
  }
  std::string blob;
  FeatureMatrix parsed;
  std::vector<RecordPair> parsed_pairs;
  std::vector<int> parsed_truth;
  const bool want_pairs = pairs != nullptr || truth != nullptr;
  if (!ReadWholeFile(EntryPath(key), &blob) ||
      !DecodeEntry(blob, &parsed, &parsed_pairs, &parsed_truth) ||
      parsed.dims() != key.num_dims ||
      (want_pairs && parsed_pairs.size() != parsed.rows())) {
    CountCacheMiss();
    return false;
  }
  *out = std::move(parsed);
  if (pairs != nullptr) *pairs = std::move(parsed_pairs);
  if (truth != nullptr) *truth = std::move(parsed_truth);
  CountCacheHit();
  return true;
}

bool FeatureCache::Store(const FeatureCacheKey& key,
                         const FeatureMatrix& matrix,
                         const std::vector<RecordPair>& pairs,
                         const std::vector<int>& truth) const {
  if (!enabled()) return false;
  if (pairs.size() != truth.size() ||
      (!pairs.empty() && pairs.size() != matrix.rows()) ||
      std::any_of(truth.begin(), truth.end(),
                  [](int label) { return label != 0 && label != 1; })) {
    return false;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return false;

  const std::string path = EntryPath(key);
  // Process-unique temp name so concurrent writers never interleave; the
  // rename publishes a complete file or nothing.
  const std::string tmp_path =
      path + ".tmp." +
      std::to_string(static_cast<unsigned long long>(
          std::hash<std::string>{}(path) ^
          static_cast<unsigned long long>(
              std::chrono::steady_clock::now().time_since_epoch().count())));
  {
    std::ofstream file(tmp_path, std::ios::binary | std::ios::trunc);
    if (!file.is_open()) return false;
    const std::string blob = EncodeEntry(matrix, pairs, truth);
    file.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!file.good()) {
      file.close();
      std::filesystem::remove(tmp_path, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    return false;
  }
  CountCacheWrite();
  return true;
}

}  // namespace alem
