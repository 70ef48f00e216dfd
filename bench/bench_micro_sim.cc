// Micro-benchmarks: throughput of each similarity function and of full
// feature-vector extraction (google-benchmark).

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "features/feature_extractor.h"
#include "kernels/backend.h"
#include "sim/similarity.h"
#include "synth/generator.h"
#include "synth/profiles.h"

namespace alem {
namespace {

// Every row runs 5 repetitions and reports only the aggregates (mean,
// median, stddev, cv): read the median, and the cv as its noise band.
constexpr int kRepetitions = 5;

// Per-function rows score one fixed pair. Pair 0 is the long-standing
// camera-title pair (58 / 55 bytes); pair 1 nearly fills the 64-byte
// alignment cap (63 / 62 bytes), the length the capped DPs of long
// attributes run at during featurization.
struct ProfilePair {
  const char* name;
  AttributeProfile left;
  AttributeProfile right;
};

const std::vector<ProfilePair>& Pairs() {
  static const auto& pairs = *new std::vector<ProfilePair>{
      {"current",
       AttributeProfile::Build(
           "sony cybershot dsc w55 digital camera 7.2 megapixel silver"),
       AttributeProfile::Build(
           "sony cyber-shot dscw55 camera 7 mp with 3x optical zoom")},
      {"near_cap",
       AttributeProfile::Build(
           "panasonic lumix dmc-fz35 12.1 megapixel digital camera 18x zoom"),
       AttributeProfile::Build(
           "panasonic lumix dmcfz35 12mp digital camera w 18x optical zoom")},
  };
  return pairs;
}

void BM_SimilarityFunction(benchmark::State& state) {
  const SimilarityFunction* function =
      AllSimilarityFunctions()[static_cast<size_t>(state.range(0))];
  const ProfilePair& pair = Pairs()[static_cast<size_t>(state.range(1))];
  state.SetLabel(std::string(function->name()) + " " + pair.name + " " +
                 std::to_string(pair.left.text.size()) + "/" +
                 std::to_string(pair.right.text.size()) + "B");
  for (auto _ : state) {
    benchmark::DoNotOptimize(function->Similarity(pair.left, pair.right));
  }
}
BENCHMARK(BM_SimilarityFunction)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kNumSimilarityFunctions - 1,
                                               1),
                   {0, 1}})
    ->ArgNames({"fn", "pair"})
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_ProfileBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(AttributeProfile::Build(
        "sony cybershot dsc w55 digital camera 7.2 megapixel silver"));
  }
}
BENCHMARK(BM_ProfileBuild)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_FullFeatureVector(benchmark::State& state) {
  static const auto& dataset =
      *new EmDataset(GenerateDataset(AbtBuyProfile(), 7, 0.2));
  static const auto& extractor = *new FeatureExtractor(dataset);
  std::vector<float> features(extractor.num_dims());
  uint32_t left = 0;
  for (auto _ : state) {
    extractor.ExtractPair(
        RecordPair{left % static_cast<uint32_t>(dataset.left.num_rows()), 0},
        features.data());
    benchmark::DoNotOptimize(features.data());
    ++left;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(extractor.num_dims()));
}
BENCHMARK(BM_FullFeatureVector)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

// ---- Per-backend kernel rows (docs/kernels.md) -------------------------
//
// EvaluateBatch over a fixed pair pool for the similarities that call a
// dispatched kernel, one row per kernel backend plus "auto", so the JSON
// shows per-backend speedups. Registered at runtime because the backend
// list is a host property.

struct SimBatchPool {
  std::vector<AttributeProfile> profiles;
  std::vector<const AttributeProfile*> left;
  std::vector<const AttributeProfile*> right;
};

const SimBatchPool& BatchPool() {
  static const SimBatchPool& pool = *new SimBatchPool([] {
    SimBatchPool p;
    const std::string samples[] = {
        "sony cybershot dsc w55 digital camera 7.2 megapixel silver",
        "sony cyber-shot dscw55 camera 7 mp with 3x optical zoom",
        "canon powershot sx130is 12.1 mp digital camera black",
        "kx-200 zoom lens kit for digital slr cameras",
        "299.99", "olympus stylus tough waterproof shockproof camera",
        "panasonic lumix dmc-fz35 12 megapixel bridge camera",
        "x"};
    for (const std::string& s : samples) {
      p.profiles.push_back(AttributeProfile::Build(s));
    }
    while (p.left.size() < 512) {
      for (const AttributeProfile& a : p.profiles) {
        for (const AttributeProfile& b : p.profiles) {
          p.left.push_back(&a);
          p.right.push_back(&b);
        }
      }
    }
    return p;
  }());
  return pool;
}

void RunSimBatchBackend(benchmark::State& state, const std::string& function,
                        const std::string& backend) {
  std::string error;
  if (!kernels::SetBackend(backend, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  const int index = SimilarityIndexByName(function);
  const SimilarityFunction* sim =
      AllSimilarityFunctions()[static_cast<size_t>(index)];
  const SimBatchPool& pool = BatchPool();
  std::vector<float> out(pool.left.size());
  for (auto _ : state) {
    sim->EvaluateBatch(pool.left, pool.right, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pool.left.size()));
  // Derived throughput per backend row: pairs scored per second.
  state.counters["pairs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(pool.left.size()),
      benchmark::Counter::kIsRate);
  kernels::SetBackend("auto", nullptr);
}

[[maybe_unused]] const int kSimBackendBenches = [] {
  std::vector<std::string> backends;
  for (const std::string_view name : kernels::AvailableBackendNames()) {
    backends.emplace_back(name);
  }
  backends.emplace_back("auto");
  for (const std::string& backend : backends) {
    // The alignment-score kernels. (The Jaro window-scan kernel serves
    // only strings over 64 bytes, which this pool does not have.)
    for (const char* function :
         {"NeedlemanWunsch", "SmithWaterman", "SmithWatermanGotoh"}) {
      benchmark::RegisterBenchmark(
          ("BM_SimBatch_" + std::string(function) + "/backend:" + backend)
              .c_str(),
          [function, backend](benchmark::State& state) {
            RunSimBatchBackend(state, function, backend);
          })
          ->Repetitions(kRepetitions)
          ->ReportAggregatesOnly(true)
          // EvaluateBatch fans out over the pool: time and rates are wall.
          ->UseRealTime();
    }
  }
  return 0;
}();

}  // namespace
}  // namespace alem
