#include <gtest/gtest.h>

#include "core/approaches.h"
#include "core/learner.h"
#include "ml/serialization.h"
#include "util/rng.h"

namespace alem {
namespace {

void MakeBlobs(size_t n, FeatureMatrix* features, std::vector<int>* labels) {
  Rng rng(1);
  *features = FeatureMatrix(n, 2);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool positive = i % 2 == 0;
    const double center = positive ? 0.8 : 0.2;
    features->Set(i, 0, static_cast<float>(center + rng.NextGaussian() * 0.05));
    features->Set(i, 1, static_cast<float>(center + rng.NextGaussian() * 0.05));
    (*labels)[i] = positive ? 1 : 0;
  }
}

template <typename LearnerType>
void ExpectCloneIsUntrainedSameType(const LearnerType& learner) {
  const std::unique_ptr<Learner> clone = learner.CloneUntrained();
  EXPECT_FALSE(clone->trained());
  EXPECT_EQ(clone->name(), learner.name());
  EXPECT_NE(dynamic_cast<const LearnerType*>(clone.get()), nullptr);
}

TEST(LearnerWrapperTest, AllWrappersCloneUntrained) {
  ExpectCloneIsUntrainedSameType(SvmLearner{});
  ExpectCloneIsUntrainedSameType(NeuralNetLearner{});
  ExpectCloneIsUntrainedSameType(ForestLearner{});
  ExpectCloneIsUntrainedSameType(RuleLearner{});
}

TEST(LearnerWrapperTest, PredictAllMatchesPredict) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeBlobs(100, &features, &labels);
  SvmLearner learner{LinearSvmConfig{}};
  learner.Fit(features, labels);
  const std::vector<int> all = learner.PredictAll(features);
  for (size_t i = 0; i < features.rows(); ++i) {
    EXPECT_EQ(all[i], learner.Predict(features.Row(i)));
  }
}

TEST(LearnerWrapperTest, SetSeedChangesStochasticModels) {
  // Label noise keeps the trees from all agreeing everywhere, so different
  // bootstrap seeds become observable through the vote fractions.
  FeatureMatrix features;
  std::vector<int> labels;
  MakeBlobs(120, &features, &labels);
  Rng noise(9);
  for (int& label : labels) {
    if (noise.NextBernoulli(0.25)) label = 1 - label;
  }
  ForestLearner a{RandomForestConfig{}};
  ForestLearner b{RandomForestConfig{}};
  a.set_seed(1);
  b.set_seed(2);
  a.Fit(features, labels);
  b.Fit(features, labels);
  bool differs = false;
  for (size_t i = 0; i < features.rows() && !differs; ++i) {
    differs = a.PositiveFraction(features.Row(i)) !=
              b.PositiveFraction(features.Row(i));
  }
  EXPECT_TRUE(differs);
}

TEST(LearnerWrapperTest, MarginLearnersExposeMargins) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeBlobs(100, &features, &labels);
  SvmLearner svm{LinearSvmConfig{}};
  svm.Fit(features, labels);
  NeuralNetLearner nn{NeuralNetConfig{}};
  nn.Fit(features, labels);
  for (const MarginLearner* learner :
       {static_cast<const MarginLearner*>(&svm),
        static_cast<const MarginLearner*>(&nn)}) {
    for (size_t i = 0; i < 10; ++i) {
      const double margin = learner->Margin(features.Row(i));
      EXPECT_EQ(learner->Predict(features.Row(i)), margin > 0.0 ? 1 : 0);
    }
  }
}

// A stored model that reads outside the pool's feature width is rejected
// on restore, leaving the learner untrained, instead of reading out of
// bounds at the next prediction.
TEST(LearnerWrapperTest, RestoreModelChecksFeatureWidth) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeBlobs(100, &features, &labels);
  SvmLearner svm{LinearSvmConfig{}};
  NeuralNetLearner nn{NeuralNetConfig{}};
  ForestLearner forest{RandomForestConfig{}};
  // The SVM and the network read exactly 2 features; the forest's splits
  // read features below 2, so only a width no split fits (0) fails it.
  for (const auto& [learner, too_narrow] :
       std::vector<std::pair<Learner*, size_t>>{
           {&svm, 1}, {&nn, 1}, {&forest, 0}}) {
    SCOPED_TRACE(std::string(learner->name()));
    learner->Fit(features, labels);
    const std::string blob = learner->SaveModel();
    EXPECT_TRUE(learner->CloneUntrained()->RestoreModel(blob, 2));
    const std::unique_ptr<Learner> narrow = learner->CloneUntrained();
    EXPECT_FALSE(narrow->RestoreModel(blob, too_narrow));
    EXPECT_FALSE(narrow->trained());
  }
  EXPECT_FALSE(svm.CloneUntrained()->RestoreModel(svm.SaveModel(), 3));
  EXPECT_FALSE(nn.CloneUntrained()->RestoreModel(nn.SaveModel(), 3));

  Dnf dnf;
  dnf.conjunctions.push_back(Conjunction{{0, 4}});
  const std::string rule_blob = SerializeDnf(dnf);
  RuleLearner rules;
  EXPECT_FALSE(rules.RestoreModel(rule_blob, 4));
  EXPECT_FALSE(rules.trained());
  EXPECT_TRUE(rules.RestoreModel(rule_blob, 5));
}

// ---- Approach factory ----

TEST(MakeApproachTest, BuildsAllDeclaredCombos) {
  for (const ApproachSpec& spec :
       {TreesSpec(5), LinearMarginSpec(0), LinearMarginSpec(3),
        LinearMarginEnsembleSpec(), LinearQbcSpec(2), NeuralMarginSpec(),
        NeuralMarginEnsembleSpec(),
        NeuralQbcSpec(4), RulesLfpLfnSpec(), RulesQbcSpec(2),
        SupervisedTreesSpec(5), DeepMatcherSpec()}) {
    const Approach approach = MakeApproach(spec, 1);
    ASSERT_NE(approach.learner, nullptr) << spec.DisplayName();
    ASSERT_NE(approach.selector, nullptr) << spec.DisplayName();
    EXPECT_TRUE(approach.selector->CompatibleWith(*approach.learner))
        << spec.DisplayName();
  }
}

TEST(MakeApproachTest, ForestSizeHonored) {
  const Approach approach = MakeApproach(TreesSpec(7), 1);
  const auto* forest = dynamic_cast<ForestLearner*>(approach.learner.get());
  ASSERT_NE(forest, nullptr);
  EXPECT_EQ(forest->model().config().num_trees, 7);
}

TEST(MakeApproachTest, MarginBlockingDimsHonored) {
  const Approach approach = MakeApproach(LinearMarginSpec(4), 1);
  const auto* margin =
      dynamic_cast<MarginSelector*>(approach.selector.get());
  ASSERT_NE(margin, nullptr);
  EXPECT_EQ(margin->blocking_dims(), 4u);
}

TEST(MakeApproachTest, DeepMatcherIsTwoLayerNetwork) {
  const Approach approach = MakeApproach(DeepMatcherSpec(), 1);
  const auto* nn = dynamic_cast<NeuralNetLearner*>(approach.learner.get());
  ASSERT_NE(nn, nullptr);
  EXPECT_EQ(nn->model().config().hidden_sizes.size(), 2u);
  EXPECT_NE(dynamic_cast<RandomSelector*>(approach.selector.get()), nullptr);
}

TEST(MakeApproachTest, IncompatibleEnsembleAborts) {
  ApproachSpec spec = TreesSpec(5);
  spec.active_ensemble = true;  // Forests have no margin.
  EXPECT_DEATH({ MakeApproach(spec, 1); }, "");
}

}  // namespace
}  // namespace alem
