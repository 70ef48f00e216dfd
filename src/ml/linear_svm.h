// Linear support vector machine trained with the Pegasos stochastic
// sub-gradient algorithm (Shalev-Shwartz et al.).
//
// This is the framework's "linear classifier" (the paper uses Weka's SVM).
// The trained weight vector and bias are exposed directly because both the
// margin example selector and the selection-time blocking optimization of
// Section 5.1 need them: margin = |w . x + b|, and the blocking dimensions
// are the top-K features by |w|.

#ifndef ALEM_ML_LINEAR_SVM_H_
#define ALEM_ML_LINEAR_SVM_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "features/feature_matrix.h"

namespace alem {

struct LinearSvmConfig {
  // Regularization strength (Pegasos lambda).
  double lambda = 1e-2;
  // Learning-rate warm start: the step counter begins at this value, so the
  // first steps use eta = 1/(lambda * t0) instead of the enormous 1/lambda.
  // Without it, the first sampled examples dominate the weight vector
  // forever (multiplicative decay preserves weight ratios).
  int t0 = 50;
  // Number of passes over the training data.
  int epochs = 60;
  // When true, each SGD step samples a positive or negative example with
  // equal probability, which counteracts the heavy class skew of EM pair
  // spaces (equivalent to cost-sensitive hinge loss).
  bool balance_classes = true;
  // Passes over the data for a warm-start refit (FitWarm): the model resumes
  // from its current weights, so far fewer passes are needed than a cold fit
  // (docs/training.md). Not part of the serialized model format.
  int warm_epochs = 10;
  uint64_t seed = 1;
};

class LinearSvm {
 public:
  LinearSvm() = default;
  explicit LinearSvm(const LinearSvmConfig& config) : config_(config) {}

  // Trains on rows of `features` with labels in {0, 1}. Retraining from
  // scratch replaces the previous model.
  void Fit(const FeatureMatrix& features, const std::vector<int>& labels);

  // Warm-start refit: resumes Pegasos from the current weights instead of
  // zero, running `warm_epochs` passes with the step counter continued past
  // a full cold schedule (so step sizes stay in the fine-tuning regime).
  // A pure function of (current weights, features, labels, config) — no
  // hidden optimizer state — so a refit after model save/restore is bitwise
  // identical to one in the original process (deterministic-restartable,
  // docs/training.md). Returns false (model untouched) when untrained or
  // the feature dimensionality changed; callers then fall back to Fit.
  bool FitWarm(const FeatureMatrix& features, const std::vector<int>& labels);

  // Signed distance proxy: w . x + b (not normalized by ||w||; the margin
  // selector only compares magnitudes so the scale cancels).
  double Margin(const float* x) const;

  // Batched margins: out[i] = Margin of row rows[i]. A register-blocked
  // w·Xᵀ GEMV sweep over blocks of rows that reloads each weight once per
  // block instead of once per row; per-row accumulation order matches
  // Margin exactly, so results are bitwise-identical to the scalar path.
  void MarginBatch(const FeatureMatrix& features, std::span<const size_t> rows,
                   double* out) const;

  // 1 if Margin(x) > 0 else 0.
  int Predict(const float* x) const;
  // Batched predictions over selected rows (margin sign, as Predict).
  void PredictBatch(const FeatureMatrix& features, std::span<const size_t> rows,
                    int* out) const;
  std::vector<int> PredictAll(const FeatureMatrix& features) const;

  bool trained() const { return !weights_.empty(); }
  const std::vector<double>& weights() const { return weights_; }
  // True when the model has one weight per feature of a `width`-wide row.
  bool FitsWidth(size_t width) const { return weights_.size() == width; }
  double bias() const { return bias_; }
  const LinearSvmConfig& config() const { return config_; }

  // Indices of the `k` features with the largest |weight| — the blocking
  // dimensions of Section 5.1. Requires a trained model.
  std::vector<size_t> TopWeightDimensions(size_t k) const;

 private:
  friend std::string SerializeSvm(const LinearSvm& model);
  friend bool DeserializeSvm(const std::string& text, LinearSvm* model);

  // Shared Pegasos loop: `epochs` passes over the data starting from the
  // current weights, with step sizes 1/(lambda * (t + t_offset)) and example
  // sampling driven by `rng_seed`. Fit resets the weights first; FitWarm
  // continues from them. With `average_tail` the result is the mean of the
  // second-half iterates (averaged Pegasos) instead of the last iterate —
  // the warm path uses this to tame short-run SGD noise; the cold path must
  // not, so the golden baselines stay bitwise.
  void RunSgd(const FeatureMatrix& features, const std::vector<int>& labels,
              size_t epochs, uint64_t t_offset, uint64_t rng_seed,
              bool average_tail);

  LinearSvmConfig config_;
  std::vector<double> weights_;
  double bias_ = 0.0;
};

}  // namespace alem

#endif  // ALEM_ML_LINEAR_SVM_H_
