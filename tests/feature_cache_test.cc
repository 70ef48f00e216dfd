// Persistent feature cache: store/load round trips of the matrix and of the
// pairs/truth section, corruption robustness (a bad file is a miss, never a
// crash), key invalidation, and the end-to-end PrepareDataset contract — a
// warm run must be bitwise identical to a cold one, at any thread count,
// without generating or blocking anything.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "blocking/jaccard_blocking.h"
#include "core/harness.h"
#include "features/feature_cache.h"
#include "features/feature_matrix.h"
#include "obs/obs.h"
#include "parallel/pool.h"
#include "synth/generator.h"
#include "synth/profiles.h"

namespace alem {
namespace {

namespace fs = std::filesystem;

std::string MakeTempCacheDir(const std::string& tag) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("alem_cache_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

FeatureMatrix PatternMatrix(size_t rows, size_t dims) {
  FeatureMatrix matrix(rows, dims);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t d = 0; d < dims; ++d) {
      matrix.Set(r, d,
                 0.123f * static_cast<float>(r + 1) /
                     static_cast<float>(d + 2));
    }
  }
  return matrix;
}

FeatureCacheKey TestKey() {
  FeatureCacheKey key;
  key.dataset_name = "Abt-Buy";
  key.profile_fingerprint = 0x1111;
  key.data_seed = 7;
  key.scale = 0.5;
  key.sim_fingerprint = 0x2222;
  key.num_dims = 6;
  return key;
}

void ExpectBitwiseEqual(const FeatureMatrix& a, const FeatureMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.dims(), b.dims());
  for (size_t r = 0; r < a.rows(); ++r) {
    ASSERT_EQ(std::memcmp(a.Row(r), b.Row(r), a.dims() * sizeof(float)), 0)
        << "row " << r;
  }
}

TEST(FeatureCacheTest, StoreLoadRoundTripIsBitwise) {
  const FeatureCache cache(MakeTempCacheDir("roundtrip"));
  ASSERT_TRUE(cache.enabled());
  const FeatureCacheKey key = TestKey();
  const FeatureMatrix matrix = PatternMatrix(17, key.num_dims);

  FeatureMatrix loaded;
  EXPECT_FALSE(cache.Load(key, &loaded));  // Cold: nothing stored yet.
  ASSERT_TRUE(cache.Store(key, matrix));
  ASSERT_TRUE(cache.Load(key, &loaded));
  ExpectBitwiseEqual(matrix, loaded);
}

TEST(FeatureCacheTest, DisabledCacheMissesAndStoresNothing) {
  const FeatureCache cache("");
  EXPECT_FALSE(cache.enabled());
  const FeatureMatrix matrix = PatternMatrix(3, TestKey().num_dims);
  EXPECT_FALSE(cache.Store(TestKey(), matrix));
  FeatureMatrix loaded;
  EXPECT_FALSE(cache.Load(TestKey(), &loaded));
}

TEST(FeatureCacheTest, TruncatedEntryIsAMissAndRecoverable) {
  const std::string dir = MakeTempCacheDir("truncated");
  const FeatureCache cache(dir);
  const FeatureCacheKey key = TestKey();
  const FeatureMatrix matrix = PatternMatrix(17, key.num_dims);
  ASSERT_TRUE(cache.Store(key, matrix));

  const fs::path path = fs::path(dir) / key.FileName();
  ASSERT_TRUE(fs::exists(path));
  fs::resize_file(path, fs::file_size(path) / 2);

  FeatureMatrix loaded;
  EXPECT_FALSE(cache.Load(key, &loaded));  // Miss, not a crash.

  // The recompute-and-overwrite path restores a readable entry.
  ASSERT_TRUE(cache.Store(key, matrix));
  ASSERT_TRUE(cache.Load(key, &loaded));
  ExpectBitwiseEqual(matrix, loaded);
}

TEST(FeatureCacheTest, CorruptPayloadIsAMiss) {
  const std::string dir = MakeTempCacheDir("corrupt");
  const FeatureCache cache(dir);
  const FeatureCacheKey key = TestKey();
  ASSERT_TRUE(cache.Store(key, PatternMatrix(17, key.num_dims)));

  const fs::path path = fs::path(dir) / key.FileName();
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(static_cast<std::streamoff>(fs::file_size(path)) - 3);
  file.put('\x7f');
  file.close();

  FeatureMatrix loaded;
  EXPECT_FALSE(cache.Load(key, &loaded));
}

std::vector<RecordPair> PatternPairs(size_t n) {
  std::vector<RecordPair> pairs(n);
  for (size_t i = 0; i < n; ++i) {
    pairs[i] = RecordPair{static_cast<uint32_t>(i / 3),
                          static_cast<uint32_t>(2 * i + 1)};
  }
  return pairs;
}

std::vector<int> PatternTruth(size_t n) {
  std::vector<int> truth(n);
  for (size_t i = 0; i < n; ++i) truth[i] = i % 3 == 0 ? 1 : 0;
  return truth;
}

std::string ReadBytes(const fs::path& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(file), {});
}

void WriteBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t Fnv1a(const char* data, size_t size, uint64_t hash) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= static_cast<unsigned char>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}
constexpr uint64_t kFnvBasis = 1469598103934665603ULL;

// Entry layout (docs/featurization.md): a 24-byte header with the pair
// count at byte 8 and the pair-section checksum at byte 16, then the
// n x 8-byte pairs, the n truth bytes, and the ALFM matrix blob.
constexpr size_t kPairCountOffset = 8;
constexpr size_t kSectionChecksumOffset = 16;
constexpr size_t kEntryHeader = 24;

uint64_t PairCount(const std::string& entry) {
  uint64_t n = 0;
  std::memcpy(&n, entry.data() + kPairCountOffset, sizeof(n));
  return n;
}

size_t TruthOffset(const std::string& entry) {
  return kEntryHeader + static_cast<size_t>(PairCount(entry)) * 8;
}

// Recomputes the pair-section checksum, so a mutation reaches the semantic
// checks behind it instead of stopping at the checksum.
void ResealPairSection(std::string* entry) {
  const uint64_t checksum =
      Fnv1a(entry->data() + kEntryHeader,
            static_cast<size_t>(PairCount(*entry)) * 9, kFnvBasis);
  std::memcpy(entry->data() + kSectionChecksumOffset, &checksum,
              sizeof(checksum));
}

// Every way a stored entry can go bad that the decoder must turn into a
// miss. Each mutation maps a valid entry to an invalid one.
std::vector<std::pair<std::string, std::function<void(std::string*)>>>
EntryMutations() {
  return {
      {"truncated to half",
       [](std::string* e) { e->resize(e->size() / 2); }},
      {"truncated inside the header", [](std::string* e) { e->resize(10); }},
      {"truncated inside the pair section",
       [](std::string* e) { e->resize(kEntryHeader + 5); }},
      {"bit flip in a pair",
       [](std::string* e) { (*e)[kEntryHeader + 4] ^= 0x10; }},
      {"bit flip in the truth bytes",
       [](std::string* e) { (*e)[TruthOffset(*e)] ^= 0x01; }},
      {"truth byte of 2 (resealed)",
       [](std::string* e) {
         (*e)[TruthOffset(*e)] = 2;
         ResealPairSection(e);
       }},
      {"pair count disagrees with the matrix rows (resealed)",
       [](std::string* e) {
         // Drop the last pair and its truth byte: a self-consistent pair
         // section one row shorter than the matrix.
         const uint64_t n = PairCount(*e);
         e->erase(TruthOffset(*e) + static_cast<size_t>(n) - 1, 1);
         e->erase(kEntryHeader + static_cast<size_t>(n - 1) * 8, 8);
         const uint64_t shorter = n - 1;
         std::memcpy(e->data() + kPairCountOffset, &shorter, sizeof(shorter));
         ResealPairSection(e);
       }},
      {"pair count beyond the file",
       [](std::string* e) {
         const uint64_t huge = UINT64_MAX / 2;
         std::memcpy(e->data() + kPairCountOffset, &huge, sizeof(huge));
       }},
      {"unknown entry version",
       [](std::string* e) { (*e)[4] = static_cast<char>((*e)[4] + 1); }},
      {"bit flip in the matrix payload",
       [](std::string* e) { (*e)[e->size() - 3] ^= 0x40; }},
  };
}

TEST(FeatureCacheTest, PairsAndTruthRoundTrip) {
  const FeatureCache cache(MakeTempCacheDir("pairs_roundtrip"));
  const FeatureCacheKey key = TestKey();
  const FeatureMatrix matrix = PatternMatrix(17, key.num_dims);
  const std::vector<RecordPair> pairs = PatternPairs(17);
  const std::vector<int> truth = PatternTruth(17);
  ASSERT_TRUE(cache.Store(key, matrix, pairs, truth));

  FeatureMatrix loaded;
  std::vector<RecordPair> loaded_pairs;
  std::vector<int> loaded_truth;
  ASSERT_TRUE(cache.Load(key, &loaded, &loaded_pairs, &loaded_truth));
  ExpectBitwiseEqual(matrix, loaded);
  EXPECT_EQ(loaded_pairs, pairs);
  EXPECT_EQ(loaded_truth, truth);

  // A matrix-only reader of the same entry still gets the matrix.
  FeatureMatrix matrix_only;
  ASSERT_TRUE(cache.Load(key, &matrix_only));
  ExpectBitwiseEqual(matrix, matrix_only);
}

TEST(FeatureCacheTest, MatrixOnlyEntryIsAMissForAPairReader) {
  const FeatureCache cache(MakeTempCacheDir("matrix_only"));
  const FeatureCacheKey key = TestKey();
  ASSERT_TRUE(cache.Store(key, PatternMatrix(5, key.num_dims)));
  FeatureMatrix loaded;
  std::vector<RecordPair> pairs;
  std::vector<int> truth;
  EXPECT_FALSE(cache.Load(key, &loaded, &pairs, &truth));
  EXPECT_TRUE(cache.Load(key, &loaded));
}

TEST(FeatureCacheTest, StoreRejectsPairsThatDoNotFitTheMatrix) {
  const FeatureCache cache(MakeTempCacheDir("store_reject"));
  const FeatureCacheKey key = TestKey();
  const FeatureMatrix matrix = PatternMatrix(4, key.num_dims);
  EXPECT_FALSE(cache.Store(key, matrix, PatternPairs(3), PatternTruth(3)));
  EXPECT_FALSE(cache.Store(key, matrix, PatternPairs(4), PatternTruth(3)));
  std::vector<int> bad_truth = PatternTruth(4);
  bad_truth[1] = 2;
  EXPECT_FALSE(cache.Store(key, matrix, PatternPairs(4), bad_truth));
  FeatureMatrix loaded;
  EXPECT_FALSE(cache.Load(key, &loaded));  // Nothing was published.
}

TEST(FeatureCacheTest, MalformedEntryIsAMissAndLeavesOutputsUntouched) {
  const std::string dir = MakeTempCacheDir("malformed");
  const FeatureCache cache(dir);
  const FeatureCacheKey key = TestKey();
  ASSERT_TRUE(cache.Store(key, PatternMatrix(17, key.num_dims),
                          PatternPairs(17), PatternTruth(17)));
  const fs::path path = fs::path(dir) / key.FileName();
  const std::string good = ReadBytes(path);
  ASSERT_EQ(PairCount(good), 17u);

  for (const auto& [name, mutate] : EntryMutations()) {
    std::string bad = good;
    mutate(&bad);
    ASSERT_NE(bad, good) << name;
    WriteBytes(path, bad);
    FeatureMatrix loaded = PatternMatrix(2, 3);
    std::vector<RecordPair> pairs = PatternPairs(2);
    std::vector<int> truth = PatternTruth(2);
    EXPECT_FALSE(cache.Load(key, &loaded, &pairs, &truth)) << name;
    EXPECT_EQ(loaded.rows(), 2u) << name;
    EXPECT_EQ(pairs, PatternPairs(2)) << name;
    EXPECT_EQ(truth, PatternTruth(2)) << name;
  }
}

// Mixes the six key fields and builds the file name around the digest.
std::string NameFromDigest(const FeatureCacheKey& key, uint64_t hash) {
  const auto mix = [&hash](const void* data, size_t size) {
    hash = Fnv1a(static_cast<const char*>(data), size, hash);
  };
  mix(key.dataset_name.data(), key.dataset_name.size());
  mix(&key.profile_fingerprint, sizeof(key.profile_fingerprint));
  mix(&key.data_seed, sizeof(key.data_seed));
  mix(&key.scale, sizeof(key.scale));
  mix(&key.sim_fingerprint, sizeof(key.sim_fingerprint));
  mix(&key.num_dims, sizeof(key.num_dims));
  std::string sanitized = key.dataset_name;
  std::replace(sanitized.begin(), sanitized.end(), '-', '_');
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(hash));
  return sanitized + "-" + digest + ".fmat";
}

// The digest of the pre-pairs layout: the six key fields, no version.
std::string LegacyFileName(const FeatureCacheKey& key) {
  return NameFromDigest(key, kFnvBasis);
}

// The digest of the current layout with the given entry, blocking and
// generator versions mixed in ahead of the key fields.
std::string VersionedFileName(const FeatureCacheKey& key,
                              uint32_t entry_version,
                              uint32_t blocking_version,
                              uint32_t synth_version) {
  uint64_t hash = kFnvBasis;
  for (const uint32_t version :
       {entry_version, blocking_version, synth_version}) {
    hash = Fnv1a(reinterpret_cast<const char*>(&version), sizeof(version),
                 hash);
  }
  return NameFromDigest(key, hash);
}

TEST(FeatureCacheTest, BareMatrixEntriesOfTheOldLayoutAreNotFound) {
  const std::string dir = MakeTempCacheDir("legacy");
  const FeatureCache cache(dir);
  const FeatureCacheKey key = TestKey();
  const std::string bare = PatternMatrix(17, key.num_dims).Serialize();

  // Under its old file name a bare ALFM matrix is simply never looked up.
  ASSERT_NE(LegacyFileName(key), key.FileName());
  WriteBytes(fs::path(dir) / LegacyFileName(key), bare);
  FeatureMatrix loaded;
  EXPECT_FALSE(cache.Load(key, &loaded));

  // Even placed under the current name it is rejected, not misparsed.
  WriteBytes(fs::path(dir) / key.FileName(), bare);
  EXPECT_FALSE(cache.Load(key, &loaded));
}

TEST(FeatureCacheTest, EveryKeyComponentAddressesADistinctEntry) {
  const FeatureCacheKey base = TestKey();

  FeatureCacheKey profile_changed = base;
  profile_changed.profile_fingerprint ^= 1;
  FeatureCacheKey seed_changed = base;
  seed_changed.data_seed += 1;
  FeatureCacheKey scale_changed = base;
  scale_changed.scale += 0.1;
  FeatureCacheKey sim_changed = base;  // A kSimRegistryVersion bump.
  sim_changed.sim_fingerprint ^= 1;
  FeatureCacheKey dims_changed = base;
  dims_changed.num_dims += kNumSimilarityFunctions;

  for (const FeatureCacheKey& changed :
       {profile_changed, seed_changed, scale_changed, sim_changed,
        dims_changed}) {
    EXPECT_NE(changed.FileName(), base.FileName());
  }

  // The entry layout, blocking and generator versions are constants mixed
  // into every digest: the file name is exactly the digest of the current
  // three, bumping any one of them addresses a different file, and no key
  // addresses the file its pre-versioned layout would have used.
  EXPECT_EQ(base.FileName(),
            VersionedFileName(base, kFeatureCacheEntryVersion,
                              kBlockingVersion, kSynthVersion));
  EXPECT_NE(base.FileName(),
            VersionedFileName(base, kFeatureCacheEntryVersion + 1,
                              kBlockingVersion, kSynthVersion));
  EXPECT_NE(base.FileName(),
            VersionedFileName(base, kFeatureCacheEntryVersion,
                              kBlockingVersion + 1, kSynthVersion));
  EXPECT_NE(base.FileName(),
            VersionedFileName(base, kFeatureCacheEntryVersion,
                              kBlockingVersion, kSynthVersion + 1));
  EXPECT_NE(base.FileName(), LegacyFileName(base));

  // A stored entry is invisible under the bumped similarity-registry key:
  // stale matrices are simply never found.
  const FeatureCache cache(MakeTempCacheDir("invalidate"));
  ASSERT_TRUE(cache.Store(base, PatternMatrix(9, base.num_dims)));
  FeatureMatrix loaded;
  EXPECT_FALSE(cache.Load(sim_changed, &loaded));
  EXPECT_TRUE(cache.Load(base, &loaded));
}

// ---- PrepareDataset integration ----

void ExpectSamePrepared(const PreparedDataset& a, const PreparedDataset& b) {
  EXPECT_EQ(a.pairs, b.pairs) << a.name;
  EXPECT_EQ(a.truth, b.truth) << a.name;
  EXPECT_EQ(a.class_skew, b.class_skew) << a.name;
  EXPECT_EQ(a.num_matches, b.num_matches) << a.name;
  EXPECT_EQ(a.feature_names, b.feature_names) << a.name;
  ExpectBitwiseEqual(a.float_features, b.float_features);
  ExpectBitwiseEqual(a.boolean_features, b.boolean_features);
}

bool HasSpan(const std::vector<obs::SpanRecord>& spans,
             const std::string& name) {
  return std::any_of(spans.begin(), spans.end(),
                     [&](const obs::SpanRecord& s) { return s.name == name; });
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

PrepareOptions SmallAbtBuy(const std::string& cache_dir) {
  PrepareOptions options;
  options.profile = AbtBuyProfile();
  options.data_seed = 11;
  options.scale = 0.2;
  options.cache_dir = cache_dir;
  return options;
}

std::vector<double> CurveF1(const PreparedDataset& data) {
  ApproachSpec spec;
  EXPECT_TRUE(ApproachFromName("linear-margin", &spec));
  RunConfig config;
  config.approach = spec;
  config.max_labels = 60;
  config.run_seed = 1;
  const RunResult result = RunActiveLearning(data, config);
  std::vector<double> f1;
  f1.reserve(result.curve.size());
  for (const IterationStats& stats : result.curve) {
    f1.push_back(stats.metrics.f1);
  }
  return f1;
}

TEST(FeatureCachePrepareTest, ColdAndWarmRunsAreBitwiseIdentical) {
  const std::string dir = MakeTempCacheDir("prepare");
  const PrepareOptions options = SmallAbtBuy(dir);

  const PreparedDataset cold = PrepareDataset(options);
  EXPECT_EQ(cold.feature_cache, "miss");
  const PreparedDataset warm = PrepareDataset(options);
  EXPECT_EQ(warm.feature_cache, "hit");

  ExpectSamePrepared(cold, warm);

  // The whole learning curve — not just the features — must match.
  const std::vector<double> cold_f1 = CurveF1(cold);
  const std::vector<double> warm_f1 = CurveF1(warm);
  ASSERT_EQ(cold_f1.size(), warm_f1.size());
  for (size_t i = 0; i < cold_f1.size(); ++i) {
    EXPECT_EQ(cold_f1[i], warm_f1[i]) << "iteration " << i;
  }
}

// A hit is a load: no generation, no blocking, no similarity evaluation —
// and it returns exactly what the cold prepare computed, on every profile.
TEST(FeatureCachePrepareTest, WarmHitEqualsColdForEveryProfile) {
  obs::SetTracingEnabled(true);
  obs::SetMetricsEnabled(true);
  for (const SynthProfile& profile : AllPublicProfiles()) {
    PrepareOptions options;
    options.profile = profile;
    options.data_seed = 5;
    options.scale = 0.2;
    options.cache_dir = MakeTempCacheDir("every_profile");

    obs::TraceRecorder::Global().Clear();
    obs::MetricsRegistry::Global().ResetAll();
    const PreparedDataset cold = PrepareDataset(options);
    ASSERT_EQ(cold.feature_cache, "miss") << profile.name;
    EXPECT_TRUE(HasSpan(obs::TraceRecorder::Global().Snapshot(),
                        "harness.generate"));
    const uint64_t cold_pairs = CounterValue("blocking.candidate_pairs");
    EXPECT_EQ(cold_pairs, cold.pairs.size()) << profile.name;

    obs::TraceRecorder::Global().Clear();
    obs::MetricsRegistry::Global().ResetAll();
    const PreparedDataset warm = PrepareDataset(options);
    ASSERT_EQ(warm.feature_cache, "hit") << profile.name;
    const std::vector<obs::SpanRecord> spans =
        obs::TraceRecorder::Global().Snapshot();
    EXPECT_TRUE(HasSpan(spans, "harness.featurize.cache")) << profile.name;
    for (const char* skipped :
         {"harness.generate", "harness.block", "blocking.jaccard"}) {
      EXPECT_FALSE(HasSpan(spans, skipped)) << profile.name << " " << skipped;
    }
    EXPECT_EQ(CounterValue("blocking.candidate_pairs"), cold_pairs)
        << profile.name;
    EXPECT_EQ(CounterValue("sim.calls"), 0u) << profile.name;

    ExpectSamePrepared(cold, warm);
  }
  obs::TraceRecorder::Global().Clear();
  obs::MetricsRegistry::Global().ResetAll();
  obs::SetTracingEnabled(false);
  obs::SetMetricsEnabled(false);
}

// A malformed entry is a miss: the prepare recomputes, returns the cold
// result and rewrites the entry byte for byte.
TEST(FeatureCachePrepareTest, MalformedEntryIsRecomputedAndRewritten) {
  const std::string dir = MakeTempCacheDir("rewrite");
  const PrepareOptions options = SmallAbtBuy(dir);
  const PreparedDataset cold = PrepareDataset(options);
  ASSERT_EQ(cold.feature_cache, "miss");
  std::vector<fs::path> entries;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    entries.push_back(entry.path());
  }
  ASSERT_EQ(entries.size(), 1u);
  const fs::path path = entries[0];
  const std::string cold_entry = ReadBytes(path);

  for (const auto& [name, mutate] : EntryMutations()) {
    std::string bad = cold_entry;
    mutate(&bad);
    WriteBytes(path, bad);
    const PreparedDataset again = PrepareDataset(options);
    EXPECT_EQ(again.feature_cache, "miss") << name;
    ExpectSamePrepared(cold, again);
    EXPECT_EQ(ReadBytes(path), cold_entry) << name;
  }
  EXPECT_EQ(PrepareDataset(options).feature_cache, "hit");
}

TEST(FeatureCachePrepareTest, WarmHitAtFourThreadsMatchesSerialCold) {
  const int previous_threads = parallel::NumThreads();
  const std::string dir = MakeTempCacheDir("prepare_threads");

  PrepareOptions cold_options = SmallAbtBuy(dir);
  cold_options.threads = 1;
  const PreparedDataset cold = PrepareDataset(cold_options);
  EXPECT_EQ(cold.feature_cache, "miss");

  PrepareOptions warm_options = SmallAbtBuy(dir);
  warm_options.threads = 4;
  const PreparedDataset warm = PrepareDataset(warm_options);
  EXPECT_EQ(warm.feature_cache, "hit");
  ExpectBitwiseEqual(cold.float_features, warm.float_features);

  // And a 4-thread recompute (cache off) matches the serial cold matrix:
  // batch extraction is thread-count independent.
  PrepareOptions nocache_options = SmallAbtBuy("");
  nocache_options.use_cache = false;
  nocache_options.threads = 4;
  const PreparedDataset recomputed = PrepareDataset(nocache_options);
  EXPECT_EQ(recomputed.feature_cache, "off");
  ExpectBitwiseEqual(cold.float_features, recomputed.float_features);

  parallel::SetNumThreads(previous_threads);
}

TEST(FeatureCachePrepareTest, UseCacheFalseBypassesTheDirectory) {
  const std::string dir = MakeTempCacheDir("bypass");
  PrepareOptions options = SmallAbtBuy(dir);
  options.use_cache = false;
  const PreparedDataset data = PrepareDataset(options);
  EXPECT_EQ(data.feature_cache, "off");
  EXPECT_TRUE(fs::is_empty(dir));  // No entry was written.
}

}  // namespace
}  // namespace alem
