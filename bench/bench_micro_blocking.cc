// Micro-benchmarks: offline blocking throughput (google-benchmark).
//
// Times the exact Jaccard join, JaccardBlocking over its token inverted
// index, against the brute-force reference it must equal, on Abt-Buy at the
// threshold of 0.1875. The argument is the dataset scale in permille (100,
// 300, 1000). Numbers live in EXPERIMENTS.md.

#include <benchmark/benchmark.h>

#include <map>

#include "blocking/jaccard_blocking.h"
#include "synth/generator.h"
#include "synth/profiles.h"

namespace alem {
namespace {

// Every row runs 5 repetitions and reports only the aggregates (mean,
// median, stddev, cv): read the median, and the cv as its noise band.
constexpr int kRepetitions = 5;

const EmDataset& DatasetAtScale(int permille) {
  // Cache generated datasets across benchmark iterations.
  static auto& cache = *new std::map<int, EmDataset>();
  auto it = cache.find(permille);
  if (it == cache.end()) {
    it = cache
             .emplace(permille, GenerateDataset(AbtBuyProfile(), 7,
                                                permille / 1000.0))
             .first;
  }
  return it->second;
}

void BM_JaccardBlockingIndexed(benchmark::State& state) {
  const EmDataset& dataset = DatasetAtScale(static_cast<int>(state.range(0)));
  const BlockingConfig config{0.1875};
  size_t pairs = 0;
  for (auto _ : state) {
    pairs = JaccardBlocking(dataset, config).size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["post_blocking_pairs"] = static_cast<double>(pairs);
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(dataset.TotalPairs()));
}
BENCHMARK(BM_JaccardBlockingIndexed)
    ->Arg(100)
    ->Arg(300)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_JaccardBlockingBruteForce(benchmark::State& state) {
  const EmDataset& dataset = DatasetAtScale(static_cast<int>(state.range(0)));
  const BlockingConfig config{0.1875};
  for (auto _ : state) {
    benchmark::DoNotOptimize(JaccardBlockingBruteForce(dataset, config));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(dataset.TotalPairs()));
}
BENCHMARK(BM_JaccardBlockingBruteForce)
    ->Arg(100)
    ->Arg(300)
    ->Unit(benchmark::kMillisecond)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

}  // namespace
}  // namespace alem
