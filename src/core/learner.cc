#include "core/learner.h"

#include <numeric>
#include <utility>

#include "ml/serialization.h"
#include "obs/obs.h"
#include "parallel/pool.h"

namespace alem {
namespace {

// Chunk size for the ml.batch fan-out. Matches the selectors' scoring grain
// so batch spans tile the same row ranges the scalar scoring loops did.
constexpr size_t kBatchGrain = 256;

}  // namespace

void Learner::Fit(const FeatureMatrix& features,
                  const std::vector<int>& labels) {
  Fit(features, labels, FitHint::kCold);
}

void Learner::Fit(const FeatureMatrix& features, const std::vector<int>& labels,
                  FitHint hint) {
  obs::ObsSpan span("ml.fit", "ml", name());
  // A warm hint is best-effort: FitWarmImpl declines (returning false with
  // the model untouched) when it cannot resume, and the cold path runs.
  const bool warm = hint == FitHint::kWarm && FitWarmImpl(features, labels);
  if (!warm) FitImpl(features, labels);
  const double seconds = span.Close();
  static obs::Counter& fits =
      obs::MetricsRegistry::Global().GetCounter("ml.fit_calls");
  fits.Increment();
  // Warm/cold rollup: ml.warm_fits + ml.cold_fits == ml.fit_calls always
  // (trace_summary.py --check enforces it; docs/observability.md).
  if (warm) {
    static obs::Counter& warm_fits =
        obs::MetricsRegistry::Global().GetCounter("ml.warm_fits");
    warm_fits.Increment();
  } else {
    static obs::Counter& cold_fits =
        obs::MetricsRegistry::Global().GetCounter("ml.cold_fits");
    cold_fits.Increment();
  }
  static obs::Histogram& latency = obs::MetricsRegistry::Global().GetHistogram(
      "ml.fit_seconds", {0.0001, 0.001, 0.01, 0.1, 1.0, 10.0});
  latency.Observe(seconds);
}

void Learner::PredictBatch(const FeatureMatrix& features,
                           std::span<const size_t> rows, int* out) const {
  // Each chunk writes its own disjoint slice and every kernel preserves the
  // scalar per-row accumulation order, so the result is bitwise-identical
  // at any thread count.
  parallel::ParallelFor(
      0, rows.size(), kBatchGrain,
      [&](size_t begin, size_t end, size_t chunk) {
        (void)chunk;
        PredictChunkImpl(features, rows.subspan(begin, end - begin),
                         out + begin);
      },
      "ml.batch");
  obs::CountPredictCalls(rows.size());
}

void Learner::ProbaBatch(const FeatureMatrix& features,
                         std::span<const size_t> rows, double* out) const {
  parallel::ParallelFor(
      0, rows.size(), kBatchGrain,
      [&](size_t begin, size_t end, size_t chunk) {
        (void)chunk;
        ProbaChunkImpl(features, rows.subspan(begin, end - begin), out + begin);
      },
      "ml.batch");
}

std::vector<int> Learner::PredictAll(const FeatureMatrix& features) const {
  std::vector<int> predictions(features.rows());
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0u);
  PredictBatch(features, rows, predictions.data());
  return predictions;
}

void Learner::PredictChunkImpl(const FeatureMatrix& features,
                               std::span<const size_t> rows, int* out) const {
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i] = PredictImpl(features.Row(rows[i]));
  }
}

void Learner::ProbaChunkImpl(const FeatureMatrix& features,
                             std::span<const size_t> rows, double* out) const {
  // Learners without a calibrated score report the hard 0/1 prediction.
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i] = static_cast<double>(PredictImpl(features.Row(rows[i])));
  }
}

void MarginLearner::MarginBatch(const FeatureMatrix& features,
                                std::span<const size_t> rows,
                                double* out) const {
  parallel::ParallelFor(
      0, rows.size(), kBatchGrain,
      [&](size_t begin, size_t end, size_t chunk) {
        (void)chunk;
        MarginChunkImpl(features, rows.subspan(begin, end - begin),
                        out + begin);
      },
      "ml.batch");
}

void MarginLearner::MarginChunkImpl(const FeatureMatrix& features,
                                    std::span<const size_t> rows,
                                    double* out) const {
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i] = Margin(features.Row(rows[i]));
  }
}

// ---- SvmLearner ----

void SvmLearner::FitImpl(const FeatureMatrix& features,
                         const std::vector<int>& labels) {
  model_.Fit(features, labels);
}

bool SvmLearner::FitWarmImpl(const FeatureMatrix& features,
                             const std::vector<int>& labels) {
  return model_.FitWarm(features, labels);
}

int SvmLearner::PredictImpl(const float* x) const { return model_.Predict(x); }

std::unique_ptr<Learner> SvmLearner::CloneUntrained() const {
  return std::make_unique<SvmLearner>(model_.config());
}

void SvmLearner::set_seed(uint64_t seed) {
  LinearSvmConfig config = model_.config();
  config.seed = seed;
  model_ = LinearSvm(config);
}

std::string SvmLearner::SaveModel() const {
  return model_.trained() ? SerializeSvm(model_) : std::string();
}

bool SvmLearner::RestoreModel(const std::string& blob, size_t width) {
  if (blob.empty()) return true;  // Untrained snapshot; nothing to install.
  LinearSvm model;
  if (!DeserializeSvm(blob, &model) || !model.FitsWidth(width)) return false;
  model_ = std::move(model);
  return true;
}

double SvmLearner::Margin(const float* x) const { return model_.Margin(x); }

void SvmLearner::PredictChunkImpl(const FeatureMatrix& features,
                                  std::span<const size_t> rows,
                                  int* out) const {
  model_.PredictBatch(features, rows, out);
}

void SvmLearner::MarginChunkImpl(const FeatureMatrix& features,
                                 std::span<const size_t> rows,
                                 double* out) const {
  model_.MarginBatch(features, rows, out);
}

std::vector<size_t> SvmLearner::BlockingDimensions(size_t k) const {
  return model_.TopWeightDimensions(k);
}

// ---- NeuralNetLearner ----

void NeuralNetLearner::FitImpl(const FeatureMatrix& features,
                               const std::vector<int>& labels) {
  model_.Fit(features, labels);
}

bool NeuralNetLearner::FitWarmImpl(const FeatureMatrix& features,
                                   const std::vector<int>& labels) {
  return model_.FitWarm(features, labels);
}

int NeuralNetLearner::PredictImpl(const float* x) const {
  return model_.Predict(x);
}

std::unique_ptr<Learner> NeuralNetLearner::CloneUntrained() const {
  return std::make_unique<NeuralNetLearner>(model_.config());
}

void NeuralNetLearner::set_seed(uint64_t seed) {
  NeuralNetConfig config = model_.config();
  config.seed = seed;
  model_ = NeuralNetwork(config);
}

std::string NeuralNetLearner::SaveModel() const {
  return model_.trained() ? SerializeNeuralNet(model_) : std::string();
}

bool NeuralNetLearner::RestoreModel(const std::string& blob, size_t width) {
  if (blob.empty()) return true;
  NeuralNetwork model;
  if (!DeserializeNeuralNet(blob, &model) || !model.FitsWidth(width)) {
    return false;
  }
  model_ = std::move(model);
  return true;
}

double NeuralNetLearner::Margin(const float* x) const {
  return model_.Margin(x);
}

void NeuralNetLearner::PredictChunkImpl(const FeatureMatrix& features,
                                        std::span<const size_t> rows,
                                        int* out) const {
  model_.PredictBatch(features, rows, out);
}

void NeuralNetLearner::ProbaChunkImpl(const FeatureMatrix& features,
                                      std::span<const size_t> rows,
                                      double* out) const {
  model_.ProbaBatch(features, rows, out);
}

void NeuralNetLearner::MarginChunkImpl(const FeatureMatrix& features,
                                       std::span<const size_t> rows,
                                       double* out) const {
  model_.MarginBatch(features, rows, out);
}

std::vector<size_t> NeuralNetLearner::BlockingDimensions(size_t k) const {
  return model_.TopImportanceDimensions(k);
}

// ---- ForestLearner ----

void ForestLearner::FitImpl(const FeatureMatrix& features,
                            const std::vector<int>& labels) {
  model_.Fit(features, labels);
}

bool ForestLearner::FitWarmImpl(const FeatureMatrix& features,
                                const std::vector<int>& labels) {
  size_t trees_refit = 0;
  if (!model_.FitWarm(features, labels, &trees_refit)) return false;
  static obs::Counter& refit_counter =
      obs::MetricsRegistry::Global().GetCounter("ml.trees_refit");
  refit_counter.Add(trees_refit);
  return true;
}

int ForestLearner::PredictImpl(const float* x) const {
  return model_.Predict(x);
}

std::unique_ptr<Learner> ForestLearner::CloneUntrained() const {
  return std::make_unique<ForestLearner>(model_.config());
}

void ForestLearner::set_seed(uint64_t seed) {
  RandomForestConfig config = model_.config();
  config.seed = seed;
  model_ = RandomForest(config);
}

std::string ForestLearner::SaveModel() const {
  return model_.trained() ? SerializeForest(model_) : std::string();
}

bool ForestLearner::RestoreModel(const std::string& blob, size_t width) {
  if (blob.empty()) return true;
  RandomForest model;
  if (!DeserializeForest(blob, &model) || !model.FitsWidth(width)) {
    return false;
  }
  model_ = std::move(model);
  return true;
}

double ForestLearner::PositiveFraction(const float* x) const {
  return model_.PositiveFraction(x);
}

void ForestLearner::PredictChunkImpl(const FeatureMatrix& features,
                                     std::span<const size_t> rows,
                                     int* out) const {
  model_.PredictBatch(features, rows, out);
}

void ForestLearner::ProbaChunkImpl(const FeatureMatrix& features,
                                   std::span<const size_t> rows,
                                   double* out) const {
  model_.PositiveFractionBatch(features, rows, out);
}

// ---- RuleLearner ----

void RuleLearner::FitImpl(const FeatureMatrix& boolean_features,
                          const std::vector<int>& labels) {
  model_.Fit(boolean_features, labels);
}

int RuleLearner::PredictImpl(const float* boolean_row) const {
  return model_.Predict(boolean_row);
}

std::unique_ptr<Learner> RuleLearner::CloneUntrained() const {
  return std::make_unique<RuleLearner>(model_.config());
}

void RuleLearner::set_seed(uint64_t seed) {
  // The greedy DNF learner is deterministic; nothing to reseed.
  (void)seed;
}

std::string RuleLearner::SaveModel() const {
  return model_.trained() ? SerializeDnf(model_.dnf()) : std::string();
}

bool RuleLearner::RestoreModel(const std::string& blob, size_t width) {
  if (blob.empty()) return true;
  Dnf dnf;
  if (!DeserializeDnf(blob, &dnf) || !dnf.FitsWidth(width)) return false;
  model_.RestoreTrained(std::move(dnf));
  return true;
}

}  // namespace alem
