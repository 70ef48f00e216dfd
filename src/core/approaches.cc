#include "core/approaches.h"

#include <cstdlib>

#include "util/check.h"

namespace alem {

std::string ApproachSpec::DisplayName() const {
  std::string learner_part;
  switch (learner) {
    case LearnerKind::kLinearSvm:
      learner_part = "Linear";
      break;
    case LearnerKind::kNeuralNet:
      learner_part = "NN";
      break;
    case LearnerKind::kRandomForest:
      if (selector == SelectorKind::kRandom) {
        return "SupervisedTrees(Random-" + std::to_string(num_trees) + ")";
      }
      return "Trees(" + std::to_string(num_trees) + ")";
    case LearnerKind::kRules:
      learner_part = "Rules";
      break;
    case LearnerKind::kDeepMatcherProxy:
      return "DeepMatcher";
  }
  switch (selector) {
    case SelectorKind::kMargin: {
      std::string suffix;
      if (active_ensemble) {
        suffix = "(Ensemble)";
      } else if (blocking_dims > 0) {
        suffix = "(" + std::to_string(blocking_dims) + "Dim)";
      }
      return learner_part + "-Margin" + suffix;
    }
    case SelectorKind::kQbc:
      return learner_part + "-QBC(" + std::to_string(committee_size) + ")";
    case SelectorKind::kForestQbc:
      return learner_part + "-ForestQBC";
    case SelectorKind::kLfpLfn:
      return learner_part + "(LFP/LFN)";
    case SelectorKind::kRandom:
      return learner_part + "-Random";
  }
  return learner_part;
}

ApproachSpec TreesSpec(int num_trees) {
  ApproachSpec spec;
  spec.learner = LearnerKind::kRandomForest;
  spec.selector = SelectorKind::kForestQbc;
  spec.num_trees = num_trees;
  return spec;
}

ApproachSpec LinearMarginSpec(size_t blocking_dims) {
  ApproachSpec spec;
  spec.learner = LearnerKind::kLinearSvm;
  spec.selector = SelectorKind::kMargin;
  spec.blocking_dims = blocking_dims;
  return spec;
}

ApproachSpec LinearMarginEnsembleSpec(double precision) {
  ApproachSpec spec = LinearMarginSpec(0);
  spec.active_ensemble = true;
  spec.ensemble_precision = precision;
  return spec;
}

ApproachSpec LinearQbcSpec(int committee_size) {
  ApproachSpec spec;
  spec.learner = LearnerKind::kLinearSvm;
  spec.selector = SelectorKind::kQbc;
  spec.committee_size = committee_size;
  return spec;
}

ApproachSpec NeuralMarginSpec() {
  ApproachSpec spec;
  spec.learner = LearnerKind::kNeuralNet;
  spec.selector = SelectorKind::kMargin;
  return spec;
}

ApproachSpec NeuralMarginEnsembleSpec(double precision) {
  ApproachSpec spec = NeuralMarginSpec();
  spec.active_ensemble = true;
  spec.ensemble_precision = precision;
  return spec;
}

ApproachSpec NeuralQbcSpec(int committee_size) {
  ApproachSpec spec;
  spec.learner = LearnerKind::kNeuralNet;
  spec.selector = SelectorKind::kQbc;
  spec.committee_size = committee_size;
  return spec;
}

ApproachSpec RulesLfpLfnSpec() {
  ApproachSpec spec;
  spec.learner = LearnerKind::kRules;
  spec.selector = SelectorKind::kLfpLfn;
  return spec;
}

ApproachSpec RulesQbcSpec(int committee_size) {
  ApproachSpec spec;
  spec.learner = LearnerKind::kRules;
  spec.selector = SelectorKind::kQbc;
  spec.committee_size = committee_size;
  return spec;
}

ApproachSpec SupervisedTreesSpec(int num_trees) {
  ApproachSpec spec;
  spec.learner = LearnerKind::kRandomForest;
  spec.selector = SelectorKind::kRandom;
  spec.num_trees = num_trees;
  return spec;
}

ApproachSpec DeepMatcherSpec() {
  ApproachSpec spec;
  spec.learner = LearnerKind::kDeepMatcherProxy;
  spec.selector = SelectorKind::kRandom;
  return spec;
}

namespace {

// Parses a trailing integer, e.g. ("trees20", "trees") -> 20.
bool ParseSuffixInt(const std::string& name, const std::string& prefix,
                    int* value) {
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
    return false;
  }
  const std::string digits = name.substr(prefix.size());
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  *value = std::atoi(digits.c_str());
  return *value > 0;
}

}  // namespace

bool ApproachFromName(const std::string& name, ApproachSpec* spec) {
  int value = 0;
  if (ParseSuffixInt(name, "trees", &value)) {
    *spec = TreesSpec(value);
    return true;
  }
  if (ParseSuffixInt(name, "supervised-trees", &value)) {
    *spec = SupervisedTreesSpec(value);
    return true;
  }
  if (name == "linear-margin") {
    *spec = LinearMarginSpec(0);
    return true;
  }
  if (name == "linear-margin-ensemble") {
    *spec = LinearMarginEnsembleSpec();
    return true;
  }
  if (name.size() > 17 && name.compare(0, 14, "linear-margin-") == 0 &&
      name.size() >= 3 && name.substr(name.size() - 3) == "dim") {
    const std::string digits =
        name.substr(14, name.size() - 14 - 3);
    bool numeric = !digits.empty();
    for (const char c : digits) numeric &= c >= '0' && c <= '9';
    if (numeric) {
      *spec = LinearMarginSpec(static_cast<size_t>(std::atoi(digits.c_str())));
      return true;
    }
    return false;
  }
  if (ParseSuffixInt(name, "linear-qbc", &value)) {
    *spec = LinearQbcSpec(value);
    return true;
  }
  if (name == "nn-margin") {
    *spec = NeuralMarginSpec();
    return true;
  }
  if (name == "nn-margin-ensemble") {
    *spec = NeuralMarginEnsembleSpec();
    return true;
  }
  if (ParseSuffixInt(name, "nn-qbc", &value)) {
    *spec = NeuralQbcSpec(value);
    return true;
  }
  if (name == "rules") {
    *spec = RulesLfpLfnSpec();
    return true;
  }
  if (ParseSuffixInt(name, "rules-qbc", &value)) {
    *spec = RulesQbcSpec(value);
    return true;
  }
  if (name == "deepmatcher") {
    *spec = DeepMatcherSpec();
    return true;
  }
  return false;
}

Approach MakeApproach(const ApproachSpec& spec, uint64_t seed) {
  Approach approach;
  switch (spec.learner) {
    case LearnerKind::kLinearSvm: {
      LinearSvmConfig config;
      config.seed = seed;
      approach.learner = std::make_unique<SvmLearner>(config);
      break;
    }
    case LearnerKind::kNeuralNet: {
      NeuralNetConfig config;
      config.seed = seed;
      approach.learner = std::make_unique<NeuralNetLearner>(config);
      break;
    }
    case LearnerKind::kRandomForest: {
      RandomForestConfig config;
      config.num_trees = spec.num_trees;
      config.seed = seed;
      approach.learner = std::make_unique<ForestLearner>(config);
      break;
    }
    case LearnerKind::kRules: {
      approach.learner = std::make_unique<RuleLearner>(DnfRuleLearnerConfig{});
      break;
    }
    case LearnerKind::kDeepMatcherProxy: {
      approach.learner =
          std::make_unique<NeuralNetLearner>(DeepMatcherProxyConfig(seed));
      break;
    }
  }
  switch (spec.selector) {
    case SelectorKind::kMargin:
      approach.selector = std::make_unique<MarginSelector>(spec.blocking_dims);
      break;
    case SelectorKind::kQbc:
      approach.selector =
          std::make_unique<QbcSelector>(spec.committee_size, seed ^ 0x9e37u);
      break;
    case SelectorKind::kForestQbc:
      approach.selector = std::make_unique<ForestQbcSelector>(seed ^ 0x517cu);
      break;
    case SelectorKind::kLfpLfn:
      approach.selector = std::make_unique<LfpLfnSelector>();
      break;
    case SelectorKind::kRandom:
      approach.selector = std::make_unique<RandomSelector>(seed ^ 0x2545u);
      break;
  }
  ALEM_CHECK(approach.selector->CompatibleWith(*approach.learner));
  if (spec.active_ensemble) {
    // Ensembles require a margin learner (Section 5.2).
    ALEM_CHECK(dynamic_cast<MarginLearner*>(approach.learner.get()) !=
               nullptr);
  }
  return approach;
}

}  // namespace alem
