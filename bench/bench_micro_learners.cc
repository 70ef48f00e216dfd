// Micro-benchmarks: training and prediction throughput of every learner at
// active-learning-realistic training-set sizes (google-benchmark).
//
// The *PoolBatch cases drive the batch inference engine (Learner::
// PredictBatch / ProbaBatch / MarginBatch fanned out under ml.batch) against
// the scalar per-row loops right above them; the Arg is the thread count.
// They are timed in wall-clock time (UseRealTime): the pool workers do the
// work, so the calling thread's CPU time would overstate their rates.
// Emit a comparable artifact with:
//   bench_micro_learners --benchmark_out=BENCH_micro_learners.json
//       --benchmark_out_format=json
// (one command line).

#include <benchmark/benchmark.h>

#include <numeric>
#include <string>

#include "core/harness.h"
#include "core/learner.h"
#include "kernels/backend.h"
#include "ml/dnf_rule.h"
#include "ml/linear_svm.h"
#include "ml/neural_net.h"
#include "ml/random_forest.h"
#include "parallel/pool.h"
#include "synth/profiles.h"

namespace alem {
namespace {

// Every row runs 5 repetitions and reports only the aggregates (mean,
// median, stddev, cv): read the median, and the cv as its noise band.
constexpr int kRepetitions = 5;

// Shared prepared dataset (Abt-Buy at reduced scale).
const PreparedDataset& Data() {
  static const auto& data =
      *new PreparedDataset(PrepareDataset({.profile = AbtBuyProfile(),
                                           .data_seed = 7,
                                           .scale = 0.4}));
  return data;
}

// Training rows: the first `n` post-blocking pairs (mixed labels).
struct TrainingSlice {
  FeatureMatrix features;
  std::vector<int> labels;
};

TrainingSlice SliceOf(size_t n, bool boolean_features) {
  const PreparedDataset& data = Data();
  n = std::min(n, data.pairs.size());
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  TrainingSlice slice;
  slice.features = (boolean_features ? data.boolean_features
                                     : data.float_features)
                       .Gather(rows);
  slice.labels.assign(data.truth.begin(),
                      data.truth.begin() + static_cast<long>(n));
  return slice;
}

void BM_SvmFit(benchmark::State& state) {
  const TrainingSlice slice =
      SliceOf(static_cast<size_t>(state.range(0)), false);
  LinearSvm model(LinearSvmConfig{});
  for (auto _ : state) {
    model.Fit(slice.features, slice.labels);
    benchmark::DoNotOptimize(model.bias());
  }
}
BENCHMARK(BM_SvmFit)->Arg(100)->Arg(300)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_ForestFit(benchmark::State& state) {
  const TrainingSlice slice =
      SliceOf(static_cast<size_t>(state.range(1)), false);
  RandomForestConfig config;
  config.num_trees = static_cast<int>(state.range(0));
  RandomForest model(config);
  for (auto _ : state) {
    model.Fit(slice.features, slice.labels);
    benchmark::DoNotOptimize(model.trees().size());
  }
}
BENCHMARK(BM_ForestFit)->Args({10, 300})->Args({20, 300})
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_NeuralNetFit(benchmark::State& state) {
  const TrainingSlice slice =
      SliceOf(static_cast<size_t>(state.range(0)), false);
  NeuralNetwork model(NeuralNetConfig{});
  for (auto _ : state) {
    model.Fit(slice.features, slice.labels);
    benchmark::DoNotOptimize(model.trained());
  }
}
BENCHMARK(BM_NeuralNetFit)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

// ---- Warm-start refits vs. cold refits (docs/training.md) --------------
//
// Models one Fig. 10-style growth step: a model trained on the first `n`
// labeled rows is refit after one batch (10 rows) of new labels arrives.
// Arg 0 is n, arg 1 selects the path (0 = cold Fit on n+10, as
// --warm-start=off does every iteration; 1 = FitWarm from the n-row model,
// the --warm-start=on path). The `fits_per_sec` rate is the comparable
// number across the pair; the warm/cold ratio is the per-iteration training
// speedup the incremental engine buys. Warm rows pay a PauseTiming'd
// re-seed per iteration so every timed refit starts from the same
// trained-at-n state.

void BM_SvmFitWarmVsCold(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool warm = state.range(1) != 0;
  const TrainingSlice early = SliceOf(n, false);
  const TrainingSlice grown = SliceOf(n + 10, false);
  LinearSvm model(LinearSvmConfig{});
  for (auto _ : state) {
    if (warm) {
      state.PauseTiming();
      model.Fit(early.features, early.labels);
      state.ResumeTiming();
      model.FitWarm(grown.features, grown.labels);
    } else {
      model.Fit(grown.features, grown.labels);
    }
    benchmark::DoNotOptimize(model.bias());
  }
  state.counters["fits_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SvmFitWarmVsCold)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({300, 0})
    ->Args({300, 1})
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_NeuralNetFitWarmVsCold(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool warm = state.range(1) != 0;
  const TrainingSlice early = SliceOf(n, false);
  const TrainingSlice grown = SliceOf(n + 10, false);
  NeuralNetwork model(NeuralNetConfig{});
  for (auto _ : state) {
    if (warm) {
      state.PauseTiming();
      model.Fit(early.features, early.labels);
      state.ResumeTiming();
      model.FitWarm(grown.features, grown.labels);
    } else {
      model.Fit(grown.features, grown.labels);
    }
    benchmark::DoNotOptimize(model.trained());
  }
  state.counters["fits_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NeuralNetFitWarmVsCold)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({300, 0})
    ->Args({300, 1})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_ForestFitWarmVsCold(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool warm = state.range(1) != 0;
  const TrainingSlice early = SliceOf(n, false);
  const TrainingSlice grown = SliceOf(n + 10, false);
  RandomForestConfig config;
  config.num_trees = 20;
  RandomForest model(config);
  for (auto _ : state) {
    if (warm) {
      state.PauseTiming();
      RandomForest fresh(config);
      fresh.FitWarm(early.features, early.labels);
      model = std::move(fresh);
      state.ResumeTiming();
      model.FitWarm(grown.features, grown.labels);
    } else {
      model.Fit(grown.features, grown.labels);
    }
    benchmark::DoNotOptimize(model.trees().size());
  }
  state.counters["fits_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ForestFitWarmVsCold)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({300, 0})
    ->Args({300, 1})
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_RulesFit(benchmark::State& state) {
  const TrainingSlice slice =
      SliceOf(static_cast<size_t>(state.range(0)), true);
  DnfRuleLearner model;
  for (auto _ : state) {
    model.Fit(slice.features, slice.labels);
    benchmark::DoNotOptimize(model.dnf().conjunctions.size());
  }
}
BENCHMARK(BM_RulesFit)->Arg(100)->Arg(300)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_ForestPredictPool(benchmark::State& state) {
  const TrainingSlice slice = SliceOf(300, false);
  RandomForestConfig config;
  config.num_trees = 20;
  RandomForest model(config);
  model.Fit(slice.features, slice.labels);
  const FeatureMatrix& pool = Data().float_features;
  for (auto _ : state) {
    size_t positives = 0;
    for (size_t i = 0; i < pool.rows(); ++i) {
      positives += static_cast<size_t>(model.Predict(pool.Row(i)));
    }
    benchmark::DoNotOptimize(positives);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pool.rows()));
}
BENCHMARK(BM_ForestPredictPool)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_SvmMarginPool(benchmark::State& state) {
  const TrainingSlice slice = SliceOf(300, false);
  LinearSvm model(LinearSvmConfig{});
  model.Fit(slice.features, slice.labels);
  const FeatureMatrix& pool = Data().float_features;
  for (auto _ : state) {
    double sum = 0.0;
    for (size_t i = 0; i < pool.rows(); ++i) {
      sum += model.Margin(pool.Row(i));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pool.rows()));
}
BENCHMARK(BM_SvmMarginPool)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

// ---- Batch inference engine vs. the scalar loops above. Arg = threads. ----

std::vector<size_t> PoolRows() {
  std::vector<size_t> rows(Data().float_features.rows());
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

void BM_SvmMarginPoolBatch(benchmark::State& state) {
  const TrainingSlice slice = SliceOf(300, false);
  SvmLearner learner;
  learner.Fit(slice.features, slice.labels);
  const FeatureMatrix& pool = Data().float_features;
  const std::vector<size_t> rows = PoolRows();
  std::vector<double> margins(rows.size());
  parallel::SetNumThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    learner.MarginBatch(pool, rows, margins.data());
    benchmark::DoNotOptimize(margins.data());
  }
  parallel::SetNumThreads(1);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_SvmMarginPoolBatch)->Arg(1)->Arg(4)
    ->UseRealTime()
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_NeuralNetProbaPool(benchmark::State& state) {
  const TrainingSlice slice = SliceOf(300, false);
  NeuralNetwork model(NeuralNetConfig{});
  model.Fit(slice.features, slice.labels);
  const FeatureMatrix& pool = Data().float_features;
  for (auto _ : state) {
    double sum = 0.0;
    for (size_t i = 0; i < pool.rows(); ++i) {
      sum += model.PredictProbability(pool.Row(i));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pool.rows()));
}
BENCHMARK(BM_NeuralNetProbaPool)
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_NeuralNetProbaPoolBatch(benchmark::State& state) {
  const TrainingSlice slice = SliceOf(300, false);
  NeuralNetLearner learner;
  learner.Fit(slice.features, slice.labels);
  const FeatureMatrix& pool = Data().float_features;
  const std::vector<size_t> rows = PoolRows();
  std::vector<double> probabilities(rows.size());
  parallel::SetNumThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    learner.ProbaBatch(pool, rows, probabilities.data());
    benchmark::DoNotOptimize(probabilities.data());
  }
  parallel::SetNumThreads(1);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_NeuralNetProbaPoolBatch)->Arg(1)->Arg(4)
    ->UseRealTime()
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

void BM_ForestPredictPoolBatch(benchmark::State& state) {
  const TrainingSlice slice = SliceOf(300, false);
  RandomForestConfig config;
  config.num_trees = 20;
  ForestLearner learner(config);
  learner.Fit(slice.features, slice.labels);
  const FeatureMatrix& pool = Data().float_features;
  const std::vector<size_t> rows = PoolRows();
  std::vector<int> predictions(rows.size());
  parallel::SetNumThreads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    learner.PredictBatch(pool, rows, predictions.data());
    benchmark::DoNotOptimize(predictions.data());
  }
  parallel::SetNumThreads(1);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_ForestPredictPoolBatch)->Arg(1)->Arg(4)
    ->UseRealTime()
    ->Repetitions(kRepetitions)
    ->ReportAggregatesOnly(true);

// ---- Per-backend kernel rows (docs/kernels.md) -------------------------
//
// The two kernel-dispatched batch paths — SVM margin GEMV and NN forward
// pass — timed single-threaded under each available kernel backend plus
// "auto", one JSON row per backend, so BENCH_micro_learners.json shows the
// per-backend speedup directly (results are bitwise-identical across
// backends; only the timing may differ). Registered at runtime because the
// backend list is a host property.

void RunSvmMarginBackend(benchmark::State& state, const std::string& backend) {
  parallel::SetNumThreads(1);  // Whatever rows ran (or were filtered) before.
  std::string error;
  if (!kernels::SetBackend(backend, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  const TrainingSlice slice = SliceOf(300, false);
  SvmLearner learner;
  learner.Fit(slice.features, slice.labels);
  const FeatureMatrix& pool = Data().float_features;
  const std::vector<size_t> rows = PoolRows();
  std::vector<double> margins(rows.size());
  for (auto _ : state) {
    learner.MarginBatch(pool, rows, margins.data());
    benchmark::DoNotOptimize(margins.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.size()));
  // Derived throughput for the JSON row: rows scored per second and GEMV
  // GFLOP/s (2 FLOPs per weight per row — multiply + accumulate).
  const double rows_done = static_cast<double>(state.iterations()) *
                           static_cast<double>(rows.size());
  state.counters["rows_per_sec"] =
      benchmark::Counter(rows_done, benchmark::Counter::kIsRate);
  state.counters["flops_per_sec"] = benchmark::Counter(
      rows_done * 2.0 * static_cast<double>(pool.dims()),
      benchmark::Counter::kIsRate);
  kernels::SetBackend("auto", nullptr);
}

void RunNeuralNetProbaBackend(benchmark::State& state,
                              const std::string& backend) {
  parallel::SetNumThreads(1);  // Whatever rows ran (or were filtered) before.
  std::string error;
  if (!kernels::SetBackend(backend, &error)) {
    state.SkipWithError(error.c_str());
    return;
  }
  const TrainingSlice slice = SliceOf(300, false);
  NeuralNetLearner learner;
  learner.Fit(slice.features, slice.labels);
  const FeatureMatrix& pool = Data().float_features;
  const std::vector<size_t> rows = PoolRows();
  std::vector<double> probabilities(rows.size());
  for (auto _ : state) {
    learner.ProbaBatch(pool, rows, probabilities.data());
    benchmark::DoNotOptimize(probabilities.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.size()));
  // Derived throughput: rows/s plus forward-pass GFLOP/s from the
  // layer shapes (2 FLOPs per weight per row, affine output included).
  const NeuralNetConfig net_config;
  double flops_per_row = 0.0;
  int in_dim = static_cast<int>(pool.dims());
  for (const int out_dim : net_config.hidden_sizes) {
    flops_per_row += 2.0 * in_dim * out_dim;
    in_dim = out_dim;
  }
  flops_per_row += 2.0 * in_dim;  // Output affine layer.
  const double rows_done = static_cast<double>(state.iterations()) *
                           static_cast<double>(rows.size());
  state.counters["rows_per_sec"] =
      benchmark::Counter(rows_done, benchmark::Counter::kIsRate);
  state.counters["flops_per_sec"] = benchmark::Counter(
      rows_done * flops_per_row, benchmark::Counter::kIsRate);
  kernels::SetBackend("auto", nullptr);
}

[[maybe_unused]] const int kLearnerBackendBenches = [] {
  std::vector<std::string> backends;
  for (const std::string_view name : kernels::AvailableBackendNames()) {
    backends.emplace_back(name);
  }
  backends.emplace_back("auto");
  for (const std::string& backend : backends) {
    benchmark::RegisterBenchmark(
        ("BM_SvmMarginPoolBatch/backend:" + backend).c_str(),
        [backend](benchmark::State& state) {
          RunSvmMarginBackend(state, backend);
        })
        ->Repetitions(kRepetitions)
        ->ReportAggregatesOnly(true);
    benchmark::RegisterBenchmark(
        ("BM_NeuralNetProbaPoolBatch/backend:" + backend).c_str(),
        [backend](benchmark::State& state) {
          RunNeuralNetProbaBackend(state, backend);
        })
        ->Repetitions(kRepetitions)
        ->ReportAggregatesOnly(true);
  }
  return 0;
}();

}  // namespace
}  // namespace alem
