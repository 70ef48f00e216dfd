// Edge cases and failure injection across the active-learning stack:
// degenerate pools, single-class data, budgets smaller than the seed,
// batches larger than the remaining pool, and fully noisy oracles.

#include <gtest/gtest.h>

#include "core/active_loop.h"
#include "core/evaluator.h"
#include "core/learner.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "util/rng.h"

namespace alem {
namespace {

struct Problem {
  FeatureMatrix features;
  std::vector<int> truth;
};

Problem MakeProblem(size_t n, double positive_rate, uint64_t seed) {
  Rng rng(seed);
  Problem problem;
  problem.features = FeatureMatrix(n, 2);
  problem.truth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool positive = rng.NextDouble() < positive_rate;
    const double center = positive ? 0.8 : 0.2;
    problem.features.Set(i, 0,
                         static_cast<float>(center + rng.NextGaussian() * 0.05));
    problem.features.Set(i, 1,
                         static_cast<float>(center + rng.NextGaussian() * 0.05));
    problem.truth[i] = positive ? 1 : 0;
  }
  return problem;
}

TEST(EdgeCaseTest, PoolSmallerThanSeedLabelsEverything) {
  const Problem problem = MakeProblem(20, 0.4, 1);
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  SvmLearner learner{LinearSvmConfig{}};
  MarginSelector selector;
  ActiveLearningConfig config;
  config.seed_size = 30;  // Bigger than the pool.
  config.max_labels = 100;
  ActiveLearningLoop loop(learner, selector, oracle, evaluator, config);
  const auto curve = loop.Run(pool);
  EXPECT_EQ(pool.num_labeled(), 20u);
  EXPECT_FALSE(curve.empty());
}

TEST(EdgeCaseTest, AllNegativePoolTerminatesGracefully) {
  // No positive example exists anywhere: the seed loop gives up after its
  // retry budget and learners must cope with single-class training data.
  const Problem problem = MakeProblem(200, 0.0, 2);
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  RandomForestConfig forest_config;
  forest_config.num_trees = 3;
  ForestLearner learner(forest_config);
  ForestQbcSelector selector(1);
  ActiveLearningConfig config;
  config.max_labels = 100;
  ActiveLearningLoop loop(learner, selector, oracle, evaluator, config);
  const auto curve = loop.Run(pool);
  ASSERT_FALSE(curve.empty());
  // Everything predicted negative: F1 undefined -> 0, never NaN.
  EXPECT_EQ(curve.back().metrics.f1, 0.0);
}

TEST(EdgeCaseTest, BudgetBelowSeedStopsAfterFirstEvaluation) {
  const Problem problem = MakeProblem(200, 0.3, 3);
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  SvmLearner learner{LinearSvmConfig{}};
  MarginSelector selector;
  ActiveLearningConfig config;
  config.seed_size = 30;
  config.max_labels = 10;  // Below the seed size.
  ActiveLearningLoop loop(learner, selector, oracle, evaluator, config);
  const auto curve = loop.Run(pool);
  EXPECT_EQ(curve.size(), 1u);  // One evaluation, no further selection.
}

TEST(EdgeCaseTest, BatchLargerThanRemainingPool) {
  const Problem problem = MakeProblem(45, 0.4, 4);
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  SvmLearner learner{LinearSvmConfig{}};
  MarginSelector selector;
  ActiveLearningConfig config;
  config.seed_size = 30;
  config.batch_size = 100;  // Far more than the 15 remaining examples.
  config.max_labels = 1000;
  ActiveLearningLoop loop(learner, selector, oracle, evaluator, config);
  loop.Run(pool);
  EXPECT_EQ(pool.num_labeled(), 45u);  // Exhausted, no overflow.
}

TEST(EdgeCaseTest, FullyNoisyOracleStillTerminates) {
  const Problem problem = MakeProblem(300, 0.2, 5);
  ActivePool pool(problem.features);
  NoisyOracle oracle(problem.truth, 1.0, 7);  // Every label inverted.
  ProgressiveEvaluator evaluator(problem.truth);
  RandomForestConfig forest_config;
  forest_config.num_trees = 5;
  ForestLearner learner(forest_config);
  ForestQbcSelector selector(2);
  ActiveLearningConfig config;
  config.max_labels = 80;
  ActiveLearningLoop loop(learner, selector, oracle, evaluator, config);
  const auto curve = loop.Run(pool);
  ASSERT_FALSE(curve.empty());
  // Learning inverted labels: progressive F1 on the true labels collapses.
  EXPECT_LT(curve.back().metrics.f1, 0.3);
}

TEST(EdgeCaseTest, EnsembleOnAllNegativePool) {
  const Problem problem = MakeProblem(150, 0.0, 6);
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  SvmLearner candidate{LinearSvmConfig{}};
  MarginSelector selector;
  ActiveLearningConfig config;
  config.max_labels = 60;
  config.ensemble_precision = 0.85;
  ActiveLearningLoop loop(candidate, selector, oracle, evaluator, config);
  const auto curve = loop.Run(pool);
  ASSERT_FALSE(curve.empty());
  EXPECT_EQ(curve.back().ensemble_size, 0u);
}

TEST(EdgeCaseTest, SeedLargerThanBudgetCountsQueriesOnce) {
  const Problem problem = MakeProblem(100, 0.3, 8);
  ActivePool pool(problem.features);
  PerfectOracle oracle(problem.truth);
  SeedPool(pool, oracle, 30, 1);
  EXPECT_EQ(oracle.queries(), pool.num_labeled());
}

TEST(EdgeCaseTest, RepeatedRunsOnSamePoolForbidden) {
  // Labeling the same row twice must abort (programmer error).
  FeatureMatrix features(3, 1);
  ActivePool pool(features);
  pool.AddLabel(0, 1);
  EXPECT_DEATH({ pool.AddLabel(0, 1); }, "");
}

}  // namespace
}  // namespace alem
