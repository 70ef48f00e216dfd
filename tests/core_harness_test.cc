#include <gtest/gtest.h>

#include "core/harness.h"
#include "synth/profiles.h"

namespace alem {
namespace {

// Prepared once: dataset preparation is the expensive part of these tests.
const PreparedDataset& SmallAbtBuy() {
  static const PreparedDataset& data =
      *new PreparedDataset(PrepareDataset({.profile = AbtBuyProfile(),
                                           .data_seed = 7,
                                           .scale = 0.35}));
  return data;
}

TEST(PrepareDatasetTest, PopulatesAllFields) {
  const PreparedDataset& data = SmallAbtBuy();
  EXPECT_EQ(data.name, "Abt-Buy");
  EXPECT_GT(data.pairs.size(), 100u);
  EXPECT_EQ(data.truth.size(), data.pairs.size());
  EXPECT_EQ(data.float_features.rows(), data.pairs.size());
  EXPECT_EQ(data.boolean_features.rows(), data.pairs.size());
  EXPECT_GT(data.num_matches, 0u);
  EXPECT_GT(data.class_skew, 0.0);
  EXPECT_LT(data.class_skew, 1.0);
  EXPECT_EQ(data.float_features.dims(), data.feature_names.size());
  ASSERT_NE(data.featurizer, nullptr);
  EXPECT_EQ(data.boolean_features.dims(), data.featurizer->num_atoms());
}

TEST(RunActiveLearningTest, TreesReachHighF1) {
  RunConfig config;
  config.approach = TreesSpec(10);
  config.max_labels = 200;
  const RunResult result = RunActiveLearning(SmallAbtBuy(), config);
  EXPECT_EQ(result.approach_name, "Trees(10)");
  EXPECT_GT(result.best_f1, 0.85);
  EXPECT_GT(result.curve.size(), 2u);
  EXPECT_LE(result.labels_to_converge, 200u);
  EXPECT_GT(result.total_wait_seconds, 0.0);
}

TEST(RunActiveLearningTest, RulesUseBooleanFeatures) {
  RunConfig config;
  config.approach = RulesLfpLfnSpec();
  config.max_labels = 150;
  const RunResult result = RunActiveLearning(SmallAbtBuy(), config);
  EXPECT_EQ(result.approach_name, "Rules(LFP/LFN)");
  // Rules learn *something* on product data.
  EXPECT_GT(result.best_f1, 0.1);
}

TEST(RunActiveLearningTest, EnsembleReportsAcceptedCount) {
  RunConfig config;
  config.approach = LinearMarginEnsembleSpec();
  config.max_labels = 200;
  const RunResult result = RunActiveLearning(SmallAbtBuy(), config);
  EXPECT_EQ(result.approach_name, "Linear-Margin(Ensemble)");
  // accepted_count is recorded (possibly 0 on an easy split, usually >= 1).
  EXPECT_GE(result.ensemble_accepted, 0u);
}

TEST(RunActiveLearningTest, HoldoutRunsEvaluateOnTestSplit) {
  RunConfig config;
  config.approach = TreesSpec(5);
  config.max_labels = 150;
  config.holdout = true;
  const RunResult result = RunActiveLearning(SmallAbtBuy(), config);
  EXPECT_GT(result.best_f1, 0.5);
}

TEST(RunActiveLearningTest, DeterministicForSameRunSeed) {
  RunConfig config;
  config.approach = TreesSpec(5);
  config.max_labels = 120;
  config.run_seed = 17;
  const RunResult a = RunActiveLearning(SmallAbtBuy(), config);
  const RunResult b = RunActiveLearning(SmallAbtBuy(), config);
  ASSERT_EQ(a.curve.size(), b.curve.size());
  for (size_t i = 0; i < a.curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.curve[i].metrics.f1, b.curve[i].metrics.f1);
    EXPECT_EQ(a.curve[i].labels_used, b.curve[i].labels_used);
  }
}

TEST(RunActiveLearningTest, NoisyOracleDegradesQuality) {
  RunConfig clean_config;
  clean_config.approach = TreesSpec(10);
  clean_config.max_labels = 200;
  RunConfig noisy_config = clean_config;
  noisy_config.oracle_noise = 0.4;
  const RunResult clean = RunActiveLearning(SmallAbtBuy(), clean_config);
  const RunResult noisy = RunActiveLearning(SmallAbtBuy(), noisy_config);
  EXPECT_GT(clean.best_f1, noisy.best_f1);
}

TEST(RunActiveLearningTest, TargetF1StopsEarly) {
  RunConfig config;
  config.approach = TreesSpec(10);
  config.max_labels = 300;
  config.target_f1 = 0.8;
  const RunResult result = RunActiveLearning(SmallAbtBuy(), config);
  EXPECT_GE(result.curve.back().metrics.f1, 0.8);
  EXPECT_LT(result.curve.back().labels_used, 300u);
}

TEST(AverageCurvesTest, PadsShorterCurvesWithFinalValue) {
  IterationStats a1, a2, b1;
  a1.labels_used = 30;
  a1.metrics.f1 = 0.5;
  a2.labels_used = 40;
  a2.metrics.f1 = 0.7;
  b1.labels_used = 30;
  b1.metrics.f1 = 0.9;
  const std::vector<std::vector<IterationStats>> curves = {{a1, a2}, {b1}};
  const std::vector<AveragedPoint> points = AverageCurves(curves);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].mean_f1, 0.7);   // (0.5 + 0.9) / 2.
  EXPECT_DOUBLE_EQ(points[1].mean_f1, 0.8);   // (0.7 + padded 0.9) / 2.
  EXPECT_EQ(points[1].labels, 40u);
  EXPECT_GT(points[0].stddev_f1, 0.0);
}

TEST(AverageCurvesTest, EmptyInput) {
  EXPECT_TRUE(AverageCurves({}).empty());
}

TEST(ApproachSpecTest, DisplayNamesMatchPaperLegends) {
  EXPECT_EQ(TreesSpec(20).DisplayName(), "Trees(20)");
  EXPECT_EQ(LinearMarginSpec(0).DisplayName(), "Linear-Margin");
  EXPECT_EQ(LinearMarginSpec(1).DisplayName(), "Linear-Margin(1Dim)");
  EXPECT_EQ(LinearMarginEnsembleSpec().DisplayName(),
            "Linear-Margin(Ensemble)");
  EXPECT_EQ(LinearQbcSpec(20).DisplayName(), "Linear-QBC(20)");
  EXPECT_EQ(NeuralMarginSpec().DisplayName(), "NN-Margin");
  EXPECT_EQ(NeuralQbcSpec(2).DisplayName(), "NN-QBC(2)");
  EXPECT_EQ(RulesLfpLfnSpec().DisplayName(), "Rules(LFP/LFN)");
  EXPECT_EQ(RulesQbcSpec(5).DisplayName(), "Rules-QBC(5)");
  EXPECT_EQ(SupervisedTreesSpec(20).DisplayName(),
            "SupervisedTrees(Random-20)");
  EXPECT_EQ(DeepMatcherSpec().DisplayName(), "DeepMatcher");
}

}  // namespace
}  // namespace alem
