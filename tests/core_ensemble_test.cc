// Active ensembles (Section 5.2) as a config of the one labeling loop:
// ActiveLearningConfig::ensemble_precision turns on the acceptance policy
// inside LabelingSession.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/active_loop.h"
#include "core/approaches.h"
#include "core/evaluator.h"
#include "core/harness.h"
#include "core/learner.h"
#include "core/oracle.h"
#include "core/selector.h"
#include "core/session.h"
#include "obs/obs.h"
#include "synth/profiles.h"
#include "util/rng.h"

namespace alem {
namespace {

// Two disjoint positive clusters; a single linear classifier can cover one
// at high precision but not both, so an ensemble should accept more than one
// member to reach high recall.
struct Problem {
  FeatureMatrix features;
  std::vector<int> truth;
};

Problem MakeTwoClusterProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  Problem problem;
  problem.features = FeatureMatrix(n, 2);
  problem.truth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double x, y;
    int label;
    switch (i % 10) {
      case 0:  // Positive cluster A: high-x, low-y.
        x = 0.85;
        y = 0.15;
        label = 1;
        break;
      case 1:  // Positive cluster B: low-x, high-y.
        x = 0.15;
        y = 0.85;
        label = 1;
        break;
      default:  // Negatives: middle.
        x = 0.45;
        y = 0.45;
        label = 0;
        break;
    }
    problem.features.Set(i, 0,
                         static_cast<float>(x + rng.NextGaussian() * 0.04));
    problem.features.Set(i, 1,
                         static_cast<float>(y + rng.NextGaussian() * 0.04));
    problem.truth[i] = label;
  }
  return problem;
}

ActiveLearningConfig EnsembleConfig(size_t max_labels,
                                    double precision = 0.85) {
  ActiveLearningConfig config;
  config.max_labels = max_labels;
  config.ensemble_precision = precision;
  return config;
}

struct EnsembleRun {
  std::vector<IterationStats> curve;
  StopReason stop_reason = StopReason::kRunning;
};

EnsembleRun RunEnsemble(const Problem& problem, ActivePool& pool,
                        const ActiveLearningConfig& config) {
  PerfectOracle oracle(problem.truth);
  ProgressiveEvaluator evaluator(problem.truth);
  SvmLearner candidate{LinearSvmConfig{}};
  MarginSelector selector;
  LabelingSession session(candidate, selector, oracle, evaluator, pool,
                          config);
  while (!session.finished()) {
    switch (session.state()) {
      case SessionState::kNeedsStep:
        EXPECT_TRUE(session.Step());
        break;
      case SessionState::kBatchReady:
        session.NextBatch();
        break;
      default:
        EXPECT_TRUE(session.SubmitLabels());
    }
  }
  return {session.curve(), session.stop_reason()};
}

TEST(ActiveEnsembleTest, AcceptsMembersAndExcludesCoverage) {
  const Problem problem = MakeTwoClusterProblem(600, 1);
  ActivePool pool(problem.features);
  const EnsembleRun run = RunEnsemble(problem, pool, EnsembleConfig(200));

  ASSERT_FALSE(run.curve.empty());
  EXPECT_GE(run.curve.back().ensemble_size, 1u);
  // Ensemble size is monotonically non-decreasing along the curve.
  for (size_t i = 1; i < run.curve.size(); ++i) {
    EXPECT_GE(run.curve[i].ensemble_size, run.curve[i - 1].ensemble_size);
  }
  // Covered rows left the pool; the progressive pool excludes nothing else.
  size_t excluded = 0;
  for (size_t row = 0; row < pool.size(); ++row) {
    excluded += pool.IsExcluded(row) ? 1 : 0;
  }
  EXPECT_GT(excluded, 0u);
}

TEST(ActiveEnsembleTest, ReachesHighRecallOnTwoClusters) {
  const Problem problem = MakeTwoClusterProblem(600, 2);
  ActivePool pool(problem.features);
  const EnsembleRun run = RunEnsemble(problem, pool, EnsembleConfig(250));
  double best_recall = 0.0;
  for (const IterationStats& stats : run.curve) {
    best_recall = std::max(best_recall, stats.metrics.recall);
  }
  EXPECT_GT(best_recall, 0.85);
}

TEST(ActiveEnsembleTest, PrecisionGateBlocksLowPrecisionCandidates) {
  // Labels independent of features: no candidate should clear tau = 0.99.
  Rng rng(3);
  Problem problem;
  problem.features = FeatureMatrix(300, 2);
  problem.truth.resize(300);
  for (size_t i = 0; i < 300; ++i) {
    problem.features.Set(i, 0, static_cast<float>(rng.NextDouble()));
    problem.features.Set(i, 1, static_cast<float>(rng.NextDouble()));
    problem.truth[i] = rng.NextBernoulli(0.3) ? 1 : 0;
  }
  ActivePool pool(problem.features);
  const EnsembleRun run =
      RunEnsemble(problem, pool, EnsembleConfig(120, 0.99));
  ASSERT_FALSE(run.curve.empty());
  EXPECT_EQ(run.curve.back().ensemble_size, 0u);
}

TEST(ActiveEnsembleTest, StopsAtLabelBudget) {
  const Problem problem = MakeTwoClusterProblem(500, 4);
  ActivePool pool(problem.features);
  RunEnsemble(problem, pool, EnsembleConfig(80));
  EXPECT_LE(pool.num_labeled(), 80u);
}

// One positive cluster: the first accepted member covers every labeled
// positive, so the next Step has a single-class training set. It skips the
// fit, and the run ends as selector-exhausted with budget left.
TEST(ActiveEnsembleTest, UntrainableStepEndsRun) {
  Rng rng(5);
  Problem problem;
  problem.features = FeatureMatrix(400, 2);
  problem.truth.resize(400);
  for (size_t i = 0; i < 400; ++i) {
    const bool positive = i % 10 == 0;
    const double center = positive ? 0.8 : 0.2;
    for (size_t d = 0; d < 2; ++d) {
      problem.features.Set(
          i, d, static_cast<float>(center + rng.NextGaussian() * 0.03));
    }
    problem.truth[i] = positive ? 1 : 0;
  }
  ActivePool pool(problem.features);
  const EnsembleRun run = RunEnsemble(problem, pool, EnsembleConfig(300));
  ASSERT_FALSE(run.curve.empty());
  EXPECT_EQ(run.stop_reason, StopReason::kSelectorExhausted);
  EXPECT_EQ(run.curve.back().ensemble_size, 1u);
  EXPECT_LT(pool.num_labeled(), 300u);
  EXPECT_FALSE(pool.unlabeled_rows().empty());
}

// Under warm_start=on an accepted member shrinks the training set, so the
// fit right after an acceptance is cold; every other fit after the first is
// warm.
TEST(ActiveEnsembleTest, WarmStartRefitsColdAfterAcceptance) {
  obs::MetricsRegistry::Global().ResetAll();
  obs::SetMetricsEnabled(true);
  const Problem problem = MakeTwoClusterProblem(600, 1);
  ActivePool pool(problem.features);
  ActiveLearningConfig config = EnsembleConfig(200);
  config.warm_start = WarmStartMode::kOn;
  const EnsembleRun run = RunEnsemble(problem, pool, config);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t fits = registry.GetCounter("ml.fit_calls").value();
  const uint64_t cold = registry.GetCounter("ml.cold_fits").value();
  obs::SetMetricsEnabled(false);
  obs::MetricsRegistry::Global().ResetAll();

  // Only the last step can skip its fit: an untrainable step ends the run.
  ASSERT_GE(fits + 1, run.curve.size());
  uint64_t refits_after_acceptance = 0;
  for (size_t i = 1; i < fits; ++i) {
    const size_t before = i > 1 ? run.curve[i - 2].ensemble_size : 0;
    refits_after_acceptance += run.curve[i - 1].ensemble_size > before;
  }
  ASSERT_GE(refits_after_acceptance, 1u);
  EXPECT_EQ(cold, 1 + refits_after_acceptance);
}

// Holdout evaluation: test rows are excluded from the pool, yet the
// accepted members' positives on them must still count, or F1 falls to 0
// whenever the current candidate is not precise enough to join the union.
TEST(ActiveEnsembleTest, HoldoutF1NeverDropsToZeroAfterAcceptance) {
  const PreparedDataset data = PrepareDataset(
      {.profile = AbtBuyProfile(), .data_seed = 7, .scale = 0.25,
       .use_cache = false, .threads = 1});
  RunConfig config;
  config.approach = LinearMarginEnsembleSpec();
  config.holdout = true;
  config.max_labels = 100;
  const RunResult result = RunActiveLearning(data, config);
  ASSERT_GE(result.ensemble_accepted, 1u);
  bool accepted = false;
  for (const IterationStats& stats : result.curve) {
    if (accepted) {
      EXPECT_GT(stats.metrics.f1, 0.0)
          << "at " << stats.labels_used << " labels";
    }
    accepted = accepted || stats.ensemble_size > 0;
  }
}

}  // namespace
}  // namespace alem
