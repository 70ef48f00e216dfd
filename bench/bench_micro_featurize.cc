// Micro-benchmarks: featurization engine throughput (google-benchmark).
//
// Compares the three ways a prepared dataset's float feature matrix can be
// obtained — the legacy per-pair extraction loop, batched per-dimension
// kernel sweeps (SimilarityFunction::EvaluateBatch at 1 and 4 threads), and
// a warm feature-cache load — plus the serialize/deserialize halves of the
// cache format in isolation. The workload is the acceptance-criteria one:
// Abt-Buy at scale 0.3. Numbers live in EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <vector>

#include "core/harness.h"
#include "features/feature_cache.h"
#include "features/feature_extractor.h"
#include "features/feature_matrix.h"
#include "parallel/pool.h"
#include "synth/generator.h"
#include "synth/profiles.h"

namespace alem {
namespace {

// Every row runs 5 repetitions and reports only the aggregates (mean,
// median, stddev, cv): read the median, and the cv as its noise band.
constexpr int kRepetitions = 5;

// Shared prepared dataset (cache off: this binary measures featurization
// itself, so PrepareDataset must always recompute).
const PreparedDataset& Data() {
  static const auto& data = *new PreparedDataset([] {
    PrepareOptions options;
    options.profile = AbtBuyProfile();
    options.data_seed = 7;
    options.scale = 0.3;
    options.use_cache = false;
    return PrepareDataset(options);
  }());
  return data;
}

// The records behind Data(): same profile, seed and scale.
const FeatureExtractor& Extractor() {
  static const auto& dataset = *new EmDataset(
      GenerateDataset(AbtBuyProfile(), Data().data_seed, Data().scale));
  static const auto& extractor = *new FeatureExtractor(dataset);
  return extractor;
}

// The legacy extraction plan: one full feature vector at a time, paying the
// per-function setup (scratch allocation, registry walk) for every pair.
void BM_ExtractPerPair(benchmark::State& state) {
  const auto& extractor = Extractor();
  const auto& pairs = Data().pairs;
  FeatureMatrix out(pairs.size(), extractor.num_dims());
  for (auto _ : state) {
    for (size_t i = 0; i < pairs.size(); ++i) {
      extractor.ExtractPair(pairs[i], out.MutableRow(i));
    }
    benchmark::DoNotOptimize(out.At(0, 0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
}
BENCHMARK(BM_ExtractPerPair)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

// Batched per-dimension sweeps; arg = worker threads (1 = serial path).
void BM_ExtractBatch(benchmark::State& state) {
  parallel::SetNumThreads(static_cast<int>(state.range(0)));
  const auto& extractor = Extractor();
  const auto& pairs = Data().pairs;
  FeatureMatrix out;
  for (auto _ : state) {
    extractor.ExtractBatch(pairs, &out);
    benchmark::DoNotOptimize(out.At(0, 0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pairs.size()));
  parallel::SetNumThreads(1);
}
BENCHMARK(BM_ExtractBatch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true)
    // ExtractBatch fans out over the pool: time and rates are wall.
    ->UseRealTime();

// Warm cache load: the whole entry (pairs, truth and matrix) from disk,
// validated and checksummed — what a warm PrepareDataset reads.
void BM_CacheLoad(benchmark::State& state) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "alem_bench_featurize")
          .string();
  const FeatureCache cache(dir);
  FeatureCacheKey key;
  key.dataset_name = Data().name;
  key.profile_fingerprint = ProfileFingerprint(AbtBuyProfile());
  key.data_seed = Data().data_seed;
  key.scale = Data().scale;
  key.num_dims = Data().float_features.dims();
  cache.Store(key, Data().float_features, Data().pairs, Data().truth);
  FeatureMatrix loaded;
  std::vector<RecordPair> pairs;
  std::vector<int> truth;
  for (auto _ : state) {
    const bool hit = cache.Load(key, &loaded, &pairs, &truth);
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(loaded.rows()));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CacheLoad)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_MatrixSerialize(benchmark::State& state) {
  const FeatureMatrix& matrix = Data().float_features;
  for (auto _ : state) {
    const std::string blob = matrix.Serialize();
    benchmark::DoNotOptimize(blob.size());
  }
}
BENCHMARK(BM_MatrixSerialize)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_MatrixDeserialize(benchmark::State& state) {
  const std::string blob = Data().float_features.Serialize();
  FeatureMatrix parsed;
  for (auto _ : state) {
    const bool ok = FeatureMatrix::Deserialize(blob, &parsed);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_MatrixDeserialize)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

}  // namespace
}  // namespace alem
