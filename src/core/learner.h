// Learner class hierarchy (Fig. 2 of the paper).
//
// The framework's plug-and-play design rests on this hierarchy: the base
// Learner class hosts the functionality every classifier shares (fit /
// predict / clone), and capability subclasses mark what each learner can do
// for example selection:
//
//   Learner
//   |-- MarginLearner            (margin-based selection is applicable)
//   |   |-- SvmLearner           (linear: exposes weights -> blocking dims)
//   |   `-- NeuralNetLearner     (non-convex non-linear)
//   |-- ForestLearner            (learner-aware committee: trees vote)
//   `-- RuleLearner              (monotone DNF; LFP/LFN heuristic applies)
//
// Example selectors declare compatibility against these interfaces, which is
// how the framework records which (learner, selector) combinations make
// sense (Section 3).

#ifndef ALEM_CORE_LEARNER_H_
#define ALEM_CORE_LEARNER_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "features/boolean_features.h"
#include "features/feature_matrix.h"
#include "ml/dnf_rule.h"
#include "ml/linear_svm.h"
#include "ml/neural_net.h"
#include "ml/random_forest.h"
#include "obs/obs.h"

namespace alem {

// Base class for all learners in the framework.
//
// Fit and Predict are non-virtual template methods so every training phase
// and prediction in the pipeline is observable from one place: Fit wraps
// FitImpl in an "ml.fit" trace span (committee-member training shows up
// nested under the selector's committee span), and Predict counts calls
// through a branch-predicted no-op when metrics are off. Subclasses
// implement FitImpl / PredictImpl.
//
// Batch inference: PredictBatch / ProbaBatch (and MarginLearner's
// MarginBatch) score a FeatureMatrix row range in one call, fanned out over
// the deterministic thread pool under the "ml.batch" obs region and routed
// to per-learner vector kernels — a blocked GEMV sweep for the linear SVM,
// a chunked fused forward pass for the neural net, a contiguous
// flattened-tree traversal for the forest. The kernels preserve the scalar
// accumulation order per row, so batch results are bitwise-identical to
// per-row Predict / Margin at every thread count. Selectors, the
// active-learning loops, and the evaluator all score through this path;
// the scalar entry points remain for selection-time blocking's early-exit
// and one-off calls.
// How Learner::Fit should obtain the new model (docs/training.md): kCold
// trains from scratch; kWarm asks the learner to resume from its current
// model via FitWarmImpl, silently falling back to a cold fit when the
// learner cannot (untrained, dimensionality change, or no warm support).
// The ml.warm_fits / ml.cold_fits counters record the path actually taken.
enum class FitHint { kCold, kWarm };

class Learner {
 public:
  virtual ~Learner() = default;

  // Trains from scratch on labels in {0, 1}.
  void Fit(const FeatureMatrix& features, const std::vector<int>& labels);

  // Trains with an explicit warm/cold hint; Fit(features, labels) is
  // equivalent to hint = FitHint::kCold.
  void Fit(const FeatureMatrix& features, const std::vector<int>& labels,
           FitHint hint);

  int Predict(const float* x) const {
    obs::CountPredictCall();
    return PredictImpl(x);
  }

  // Batched prediction: out[i] = prediction for row rows[i] of `features`
  // (out must hold rows.size() slots). Chunked over the thread pool under
  // the "ml.batch" region; counts rows.size() toward ml.predict_calls —
  // exactly what per-row Predict would have counted.
  void PredictBatch(const FeatureMatrix& features,
                    std::span<const size_t> rows, int* out) const;

  // Batched positive-class score per row: the forest reports its positive
  // tree fraction, the neural net its sigmoid probability; learners without
  // a calibrated score fall back to the 0/1 prediction. Does NOT count
  // predict calls (parity with the scalar PositiveFraction / Margin paths,
  // which never did).
  void ProbaBatch(const FeatureMatrix& features, std::span<const size_t> rows,
                  double* out) const;

  // All rows of `features`, in order, through the batch path.
  std::vector<int> PredictAll(const FeatureMatrix& features) const;

  virtual bool trained() const = 0;

  // Fresh untrained instance with identical configuration (used by the
  // learner-agnostic QBC selector to build bootstrap committees).
  virtual std::unique_ptr<Learner> CloneUntrained() const = 0;

  // Reseeds internal randomness (committee members need distinct streams).
  virtual void set_seed(uint64_t seed) = 0;

  // Serializes the trained model through ml/serialization so a labeling
  // session snapshot can carry it across processes (docs/sessions.md).
  // Returns an empty blob when untrained; RestoreModel accepts an empty
  // blob as "untrained" and returns false on malformed input or on a model
  // that does not read rows `width` features wide (the pool's feature
  // width), leaving the learner untouched. The defaults cover learners
  // without a persistent model format.
  virtual std::string SaveModel() const { return {}; }
  virtual bool RestoreModel(const std::string& blob, size_t /*width*/) {
    return blob.empty();
  }

  virtual std::string_view name() const = 0;

 protected:
  virtual void FitImpl(const FeatureMatrix& features,
                       const std::vector<int>& labels) = 0;
  virtual int PredictImpl(const float* x) const = 0;

  // Warm-start refit from the current model. Returns false (model untouched)
  // when the learner cannot warm-start — Fit then runs FitImpl instead. The
  // default marks warm starts unsupported for the learner.
  virtual bool FitWarmImpl(const FeatureMatrix& features,
                           const std::vector<int>& labels) {
    (void)features;
    (void)labels;
    return false;
  }

  // Serial batch kernels over one chunk of rows, invoked from inside the
  // PredictBatch / ProbaBatch fan-out. Defaults loop the scalar PredictImpl;
  // learners with vectorized kernels override.
  virtual void PredictChunkImpl(const FeatureMatrix& features,
                                std::span<const size_t> rows, int* out) const;
  virtual void ProbaChunkImpl(const FeatureMatrix& features,
                              std::span<const size_t> rows, double* out) const;
};

// Learners for which a margin (distance-to-decision-boundary proxy) exists.
class MarginLearner : public Learner {
 public:
  // |Margin| near 0 means the learner is ambiguous about x.
  virtual double Margin(const float* x) const = 0;

  // Batched signed margins over a row range, fanned out under "ml.batch"
  // like PredictBatch; bitwise-identical to per-row Margin. Does not count
  // predict calls (the scalar margin path never did).
  void MarginBatch(const FeatureMatrix& features, std::span<const size_t> rows,
                   double* out) const;

  // Indices of the top-k most discriminative feature dimensions, used as
  // selection-time blocking dimensions (Section 5.1 of the paper): when all
  // of them are zero for an example, the margin reduces to a constant and
  // the example is unambiguous. The default (empty) marks blocking as
  // unsupported for the learner.
  virtual std::vector<size_t> BlockingDimensions(size_t k) const {
    (void)k;
    return {};
  }

 protected:
  // Serial margin kernel for one chunk; default loops the scalar Margin.
  virtual void MarginChunkImpl(const FeatureMatrix& features,
                               std::span<const size_t> rows,
                               double* out) const;
};

// Linear SVM learner.
class SvmLearner final : public MarginLearner {
 public:
  SvmLearner() = default;
  explicit SvmLearner(const LinearSvmConfig& config) : model_(config) {}

  bool trained() const override { return model_.trained(); }
  std::unique_ptr<Learner> CloneUntrained() const override;
  void set_seed(uint64_t seed) override;
  std::string_view name() const override { return "LinearSVM"; }
  std::string SaveModel() const override;
  bool RestoreModel(const std::string& blob, size_t width) override;
  double Margin(const float* x) const override;
  std::vector<size_t> BlockingDimensions(size_t k) const override;

  const LinearSvm& model() const { return model_; }

 protected:
  void FitImpl(const FeatureMatrix& features,
               const std::vector<int>& labels) override;
  bool FitWarmImpl(const FeatureMatrix& features,
                   const std::vector<int>& labels) override;
  int PredictImpl(const float* x) const override;
  // Blocked w·Xᵀ sweeps over the chunk (LinearSvm batch kernels).
  void PredictChunkImpl(const FeatureMatrix& features,
                        std::span<const size_t> rows, int* out) const override;
  void MarginChunkImpl(const FeatureMatrix& features,
                       std::span<const size_t> rows,
                       double* out) const override;

 private:
  LinearSvm model_;
};

// Single-hidden-layer feed-forward network learner.
class NeuralNetLearner final : public MarginLearner {
 public:
  NeuralNetLearner() = default;
  explicit NeuralNetLearner(const NeuralNetConfig& config) : model_(config) {}

  bool trained() const override { return model_.trained(); }
  std::unique_ptr<Learner> CloneUntrained() const override;
  void set_seed(uint64_t seed) override;
  std::string_view name() const override { return "NeuralNet"; }
  std::string SaveModel() const override;
  bool RestoreModel(const std::string& blob, size_t width) override;
  double Margin(const float* x) const override;
  // Blocking for non-linear classifiers (paper Section 5.2 suggestion):
  // input dimensions ranked by back-propagated absolute weight products.
  std::vector<size_t> BlockingDimensions(size_t k) const override;

  const NeuralNetwork& model() const { return model_; }

 protected:
  void FitImpl(const FeatureMatrix& features,
               const std::vector<int>& labels) override;
  bool FitWarmImpl(const FeatureMatrix& features,
                   const std::vector<int>& labels) override;
  int PredictImpl(const float* x) const override;
  // Chunked fused forward passes (NeuralNetwork batch kernels).
  void PredictChunkImpl(const FeatureMatrix& features,
                        std::span<const size_t> rows, int* out) const override;
  void ProbaChunkImpl(const FeatureMatrix& features,
                      std::span<const size_t> rows,
                      double* out) const override;
  void MarginChunkImpl(const FeatureMatrix& features,
                       std::span<const size_t> rows,
                       double* out) const override;

 private:
  NeuralNetwork model_;
};

// Random-forest learner. The trees double as a learner-aware QBC committee.
class ForestLearner final : public Learner {
 public:
  ForestLearner() = default;
  explicit ForestLearner(const RandomForestConfig& config) : model_(config) {}

  bool trained() const override { return model_.trained(); }
  std::unique_ptr<Learner> CloneUntrained() const override;
  void set_seed(uint64_t seed) override;
  std::string_view name() const override { return "RandomForest"; }
  std::string SaveModel() const override;
  bool RestoreModel(const std::string& blob, size_t width) override;

  // Fraction of trees voting positive on x (committee agreement).
  double PositiveFraction(const float* x) const;

  const RandomForest& model() const { return model_; }

 protected:
  void FitImpl(const FeatureMatrix& features,
               const std::vector<int>& labels) override;
  // Refits only the trees whose Poisson-bootstrap sample gained labels;
  // increments ml.trees_refit by the number actually re-fit.
  bool FitWarmImpl(const FeatureMatrix& features,
                   const std::vector<int>& labels) override;
  int PredictImpl(const float* x) const override;
  // Flattened-forest traversal with per-row register vote accumulation.
  // ProbaChunkImpl yields the positive tree fraction per row (the QBC vote
  // signal).
  void PredictChunkImpl(const FeatureMatrix& features,
                        std::span<const size_t> rows, int* out) const override;
  void ProbaChunkImpl(const FeatureMatrix& features,
                      std::span<const size_t> rows,
                      double* out) const override;

 private:
  RandomForest model_;
};

// Monotone-DNF rule learner. Consumes *Boolean* feature matrices (built by
// BooleanFeaturizer); the featurizer reference is kept for pretty-printing.
class RuleLearner final : public Learner {
 public:
  RuleLearner() = default;
  explicit RuleLearner(const DnfRuleLearnerConfig& config) : model_(config) {}

  bool trained() const override { return model_.trained(); }
  std::unique_ptr<Learner> CloneUntrained() const override;
  void set_seed(uint64_t seed) override;
  std::string_view name() const override { return "Rules"; }
  std::string SaveModel() const override;
  bool RestoreModel(const std::string& blob, size_t width) override;

  const Dnf& dnf() const { return model_.dnf(); }
  const DnfRuleLearner& model() const { return model_; }

 protected:
  void FitImpl(const FeatureMatrix& boolean_features,
               const std::vector<int>& labels) override;
  int PredictImpl(const float* boolean_row) const override;

 private:
  DnfRuleLearner model_;
};

}  // namespace alem

#endif  // ALEM_CORE_LEARNER_H_
