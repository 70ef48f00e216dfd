// End-to-end integration: every (learner, selector) combination that the
// framework declares compatible runs on a real synthetic dataset and learns
// something meaningful.

#include <gtest/gtest.h>

#include <vector>

#include "core/harness.h"
#include "synth/profiles.h"

namespace alem {
namespace {

const PreparedDataset& Data() {
  static const PreparedDataset& data =
      *new PreparedDataset(PrepareDataset({.profile = AbtBuyProfile(),
                                           .data_seed = 11,
                                           .scale = 0.3}));
  return data;
}

struct Combo {
  ApproachSpec spec;
  double min_f1;  // Loose floor; catches broken wiring, not tuning drift.
};

class ComboTest : public ::testing::TestWithParam<size_t> {};

const std::vector<Combo>& Combos() {
  static const auto& combos = *new std::vector<Combo>{
      {TreesSpec(2), 0.6},
      {TreesSpec(10), 0.7},
      {TreesSpec(20), 0.7},
      {LinearMarginSpec(0), 0.4},
      {LinearMarginSpec(1), 0.4},
      {LinearMarginSpec(5), 0.4},
      {LinearMarginEnsembleSpec(), 0.4},
      {LinearQbcSpec(2), 0.4},
      {LinearQbcSpec(20), 0.4},
      {NeuralMarginSpec(), 0.5},
      {NeuralQbcSpec(2), 0.5},
      {RulesLfpLfnSpec(), 0.15},
      {RulesQbcSpec(3), 0.15},
      {SupervisedTreesSpec(10), 0.5},
      {DeepMatcherSpec(), 0.3},
  };
  return combos;
}

TEST_P(ComboTest, RunsAndLearns) {
  const Combo& combo = Combos()[GetParam()];
  RunConfig config;
  config.approach = combo.spec;
  config.max_labels = 180;
  config.run_seed = 5;
  const RunResult result = RunActiveLearning(Data(), config);
  EXPECT_FALSE(result.curve.empty()) << result.approach_name;
  EXPECT_GT(result.best_f1, combo.min_f1) << result.approach_name;
  // Labels never exceed the budget (modulo the seed top-up).
  EXPECT_LE(result.curve.back().labels_used, 200u) << result.approach_name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ComboTest, ::testing::Range<size_t>(0, Combos().size()),
    [](const ::testing::TestParamInfo<size_t>& info) {
      std::string name = Combos()[info.param].spec.DisplayName();
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(IntegrationTest, TreesBeatLinearOnHeterogeneousProducts) {
  // The paper's headline: learner-aware tree committees dominate.
  RunConfig trees_config;
  trees_config.approach = TreesSpec(20);
  trees_config.max_labels = 250;
  RunConfig linear_config = trees_config;
  linear_config.approach = LinearMarginSpec(0);
  const RunResult trees = RunActiveLearning(Data(), trees_config);
  const RunResult linear = RunActiveLearning(Data(), linear_config);
  EXPECT_GT(trees.best_f1, linear.best_f1);
}

TEST(IntegrationTest, ActiveTreesBeatSupervisedAtEqualBudget) {
  RunConfig active_config;
  active_config.approach = TreesSpec(10);
  active_config.max_labels = 120;
  active_config.holdout = true;
  RunConfig supervised_config = active_config;
  supervised_config.approach = SupervisedTreesSpec(10);
  const RunResult active = RunActiveLearning(Data(), active_config);
  const RunResult supervised = RunActiveLearning(Data(), supervised_config);
  // At a tight label budget, informative selection should not lose; allow a
  // small slack for seed randomness.
  EXPECT_GE(active.best_f1 + 0.05, supervised.best_f1);
}

TEST(IntegrationTest, BlockingDoesNotHurtQuality) {
  RunConfig full_config;
  full_config.approach = LinearMarginSpec(0);
  full_config.max_labels = 200;
  RunConfig blocked_config = full_config;
  blocked_config.approach = LinearMarginSpec(1);
  const RunResult full = RunActiveLearning(Data(), full_config);
  const RunResult blocked = RunActiveLearning(Data(), blocked_config);
  EXPECT_NEAR(blocked.best_f1, full.best_f1, 0.15);
}

TEST(IntegrationTest, RulesTerminateEarly) {
  RunConfig config;
  config.approach = RulesLfpLfnSpec();
  config.max_labels = 100000;  // Effectively unbounded.
  const RunResult result = RunActiveLearning(Data(), config);
  // LFP/LFN terminates on its own long before exhausting the pool.
  EXPECT_LT(result.curve.back().labels_used, Data().pairs.size());
}

}  // namespace
}  // namespace alem
