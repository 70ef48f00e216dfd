// Monotone-DNF rule model and learner (Qian et al., CIKM 2017 style).
//
// Rules are disjunctions of conjunctions over Boolean atoms of the form
// sim(attr) >= tau (see BooleanFeaturizer). The learner greedily grows one
// high-precision conjunction at a time (set-cover over the positive
// examples), accepting a conjunction into the DNF only when its precision on
// the remaining training data clears a threshold — the "ensemble of high
// precision rules" that Sections 4.3 and 5.2 of the paper build on.
//
// The model also exposes its Rule-Minus relaxations (each conjunction with
// one atom dropped), which the LFP/LFN example selector executes to find
// likely false negatives.

#ifndef ALEM_ML_DNF_RULE_H_
#define ALEM_ML_DNF_RULE_H_

#include <string>
#include <utility>
#include <vector>

#include "features/boolean_features.h"
#include "features/feature_matrix.h"

namespace alem {

// A conjunction of Boolean atoms, stored as indices into a
// BooleanFeaturizer's atom list.
struct Conjunction {
  std::vector<size_t> atoms;

  // True when every atom evaluates to 1 on `boolean_row`.
  bool Matches(const float* boolean_row) const;
};

// A disjunction of conjunctions.
struct Dnf {
  std::vector<Conjunction> conjunctions;

  bool Matches(const float* boolean_row) const;

  // #atoms counted with repetition (the interpretability metric).
  size_t NumAtoms() const;

  // True when every atom indexes into a Boolean row of `width` atoms.
  bool FitsWidth(size_t width) const;

  // All one-atom-dropped relaxations of the conjunctions (Rule-Minus rules).
  // Single-atom conjunctions have no relaxation.
  std::vector<Conjunction> RuleMinusVariants() const;

  // Removes redundant conjunctions: duplicates, and any conjunction whose
  // atom set is a superset of another's (monotone DNF: the narrower rule is
  // implied by the broader one). Keeps semantics identical while reducing
  // the interpretability atom count. Returns #conjunctions removed.
  size_t Simplify();

  // Pretty-prints with atom descriptions from `featurizer`.
  std::string ToString(const BooleanFeaturizer& featurizer) const;
};

struct DnfRuleLearnerConfig {
  // Minimum training precision for a conjunction to enter the DNF.
  double min_precision = 0.85;
  // Safety caps; generously above what EM rule ensembles need in practice.
  size_t max_conjunctions = 64;
  size_t max_atoms_per_conjunction = 8;
};

class DnfRuleLearner {
 public:
  DnfRuleLearner() = default;
  explicit DnfRuleLearner(const DnfRuleLearnerConfig& config)
      : config_(config) {}

  // Trains on a 0/1 Boolean feature matrix. An empty DNF (predicting all
  // non-match) is a valid outcome when no high-precision rule exists.
  void Fit(const FeatureMatrix& boolean_features,
           const std::vector<int>& labels);

  int Predict(const float* boolean_row) const;
  std::vector<int> PredictAll(const FeatureMatrix& boolean_features) const;

  bool trained() const { return trained_; }
  const Dnf& dnf() const { return dnf_; }
  const DnfRuleLearnerConfig& config() const { return config_; }

  // Installs a deserialized DNF as the trained model (keeping the config);
  // the ml/serialization SerializeDnf round trip and session restore use
  // this because Fit is the only other way to produce a trained learner.
  void RestoreTrained(Dnf dnf) {
    dnf_ = std::move(dnf);
    trained_ = true;
  }

 private:
  DnfRuleLearnerConfig config_;
  Dnf dnf_;
  bool trained_ = false;
};

}  // namespace alem

#endif  // ALEM_ML_DNF_RULE_H_
