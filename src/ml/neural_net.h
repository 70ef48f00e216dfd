// Feed-forward neural network (the paper's non-convex non-linear learner).
//
// Architecture per Section 4.2.2: input -> affine -> ReLU -> batch
// normalization -> dropout -> ... -> affine(1) -> sigmoid. The scalar affine
// output is the *margin* in the sense of Nguyen & Sanner, which is what the
// margin example selector consumes. Training uses L2 loss and SGD with
// momentum; the paper's hyper-parameters are the defaults (50 epochs,
// mini-batch 8, learning rate 0.001, decay 0.99, momentum 0.95, dropout of
// half the hidden nodes).
//
// The number of hidden layers is configurable: one layer reproduces the
// paper's network, two layers with more units implement the DeepMatcherProxy
// used as the supervised deep-learning baseline of Fig. 16.

#ifndef ALEM_ML_NEURAL_NET_H_
#define ALEM_ML_NEURAL_NET_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "features/feature_matrix.h"

namespace alem {

struct NeuralNetConfig {
  std::vector<int> hidden_sizes = {32};
  int epochs = 50;
  int batch_size = 8;
  double learning_rate = 0.001;
  double learning_rate_decay = 0.99;  // Per epoch.
  double momentum = 0.95;
  double dropout = 0.5;
  bool use_batch_norm = true;
  // Gradient weight multiplier for positive examples is
  // min(#neg / #pos, positive_weight_cap); counteracts class skew.
  double positive_weight_cap = 10.0;
  // Epochs for a warm-start refit (FitWarm): training resumes from the
  // current weights, so far fewer passes are needed than a cold fit
  // (docs/training.md). Not part of the serialized model format.
  int warm_epochs = 10;
  uint64_t seed = 1;
};

class NeuralNetwork {
 public:
  NeuralNetwork() = default;
  explicit NeuralNetwork(const NeuralNetConfig& config) : config_(config) {}

  // Trains from scratch on labels in {0, 1}.
  void Fit(const FeatureMatrix& features, const std::vector<int>& labels);

  // Warm-start refit: resumes SGD from the current weights (and batch-norm
  // running statistics) for `warm_epochs` epochs, starting at the learning
  // rate a full cold schedule would have decayed to. Momentum velocities are
  // zeroed at entry, making the refit a pure function of (current weights,
  // features, labels, config) — the same contract DeserializeNeuralNet
  // provides — so a refit after model save/restore is bitwise identical to
  // one in the original process (docs/training.md). Returns false (model
  // untouched) when untrained or the input dimensionality changed.
  bool FitWarm(const FeatureMatrix& features, const std::vector<int>& labels);

  // Pre-sigmoid affine output (inference mode: running batch-norm
  // statistics, no dropout). |Margin| near 0 <=> output probability near
  // 0.5 <=> maximally ambiguous example.
  double Margin(const float* x) const;

  // Batched margins: out[i] = Margin of row rows[i]. The forward pass runs
  // chunked — sub-chunks of rows share one cache-resident pass over each
  // hidden layer's weight matrix, with ReLU and inference batch-norm fused
  // into the same sweep, batch-norm divisors hoisted per layer, and scratch
  // reused across chunks (mirroring SimilarityFunction::EvaluateChunk).
  // Per-(row, unit) arithmetic matches Margin exactly, so results are
  // bitwise-identical to the scalar path.
  void MarginBatch(const FeatureMatrix& features, std::span<const size_t> rows,
                   double* out) const;

  // Sigmoid(Margin(x)).
  double PredictProbability(const float* x) const;

  // Batched probabilities: sigmoid fused onto the MarginBatch output.
  void ProbaBatch(const FeatureMatrix& features, std::span<const size_t> rows,
                  double* out) const;

  // 1 if probability > 0.5.
  int Predict(const float* x) const;
  // Batched predictions over selected rows (probability > 0.5, as Predict).
  void PredictBatch(const FeatureMatrix& features, std::span<const size_t> rows,
                    int* out) const;
  std::vector<int> PredictAll(const FeatureMatrix& features) const;

  bool trained() const { return !layers_.empty(); }
  // True when the first layer reads exactly `width` input features.
  bool FitsWidth(size_t width) const {
    return !layers_.empty() &&
           static_cast<size_t>(layers_.front().in) == width;
  }
  const NeuralNetConfig& config() const { return config_; }

  // Per-input-dimension importance: the absolute-weight product propagated
  // from the output back to each input (|W1|^T |gamma1| ... |w_out|). This
  // generalizes the linear "top |weight| dimensions" idea and implements the
  // paper's suggested blocking scheme for non-linear classifiers
  // (Section 5.2, "include the largest weights for each exponent").
  std::vector<double> InputImportances() const;

  // Indices of the `k` inputs with the largest importance.
  std::vector<size_t> TopImportanceDimensions(size_t k) const;

 private:
  friend std::string SerializeNeuralNet(const NeuralNetwork& model);
  friend bool DeserializeNeuralNet(const std::string& text,
                                   NeuralNetwork* model);

  struct Layer {
    int in = 0;
    int out = 0;
    // Row-major [out x in] weights and [out] bias.
    std::vector<double> weights, bias;
    // Batch-norm parameters and running statistics, all [out].
    std::vector<double> gamma, beta, running_mean, running_var;
    // Momentum velocity buffers.
    std::vector<double> v_weights, v_bias, v_gamma, v_beta;
  };

  void InitializeLayers(size_t input_dims);

  // Shared SGD loop: `epochs` passes from the current weights, starting at
  // `learning_rate` (decayed per epoch) with shuffling/dropout driven by
  // `rng_seed`. Fit initializes fresh layers first; FitWarm zeroes the
  // velocity buffers and continues.
  void Train(const FeatureMatrix& features, const std::vector<int>& labels,
             int epochs, double initial_learning_rate, uint64_t rng_seed);

  NeuralNetConfig config_;
  std::vector<Layer> layers_;  // Hidden layers.
  // Output affine layer: [1 x last_hidden] weights + scalar bias.
  std::vector<double> out_weights_;
  double out_bias_ = 0.0;
  std::vector<double> v_out_weights_;
  double v_out_bias_ = 0.0;
};

// A deeper supervised network standing in for DeepMatcher (Mudgal et al.) in
// the Fig. 16 comparison: two hidden layers of 64 units. DESIGN.md documents
// this substitution.
NeuralNetConfig DeepMatcherProxyConfig(uint64_t seed);

}  // namespace alem

#endif  // ALEM_ML_NEURAL_NET_H_
