// Warm-start training (docs/training.md).
//
// The contracts pinned here:
//   * Warm refits converge: a model warm-started onto a grown labeled set
//     scores within a small F1 tolerance of a cold fit on the same set.
//   * Warm refits are restartable: serialize -> deserialize -> FitWarm is
//     bitwise-identical to FitWarm without the round-trip (the session
//     save/resume contract extends to warm mode).
//   * Forest warm fits are path-independent: warm-fitting at n1 then at n2
//     equals warm-fitting at n2 directly, bitwise — which proves skipped
//     (untouched) trees are exactly what a refit would have produced.
//   * A warm session paused and resumed finishes bitwise-identical to the
//     uninterrupted warm run.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "core/active_loop.h"
#include "core/evaluator.h"
#include "core/learner.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "core/session.h"
#include "ml/linear_svm.h"
#include "ml/metrics.h"
#include "ml/neural_net.h"
#include "ml/random_forest.h"
#include "ml/serialization.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace alem {
namespace {

// A 2-D, mostly separable problem with 10% class skew (like EM pairs).
struct Problem {
  FeatureMatrix features;
  std::vector<int> truth;
};

Problem MakeProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  Problem problem;
  problem.features = FeatureMatrix(n, 2);
  problem.truth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool positive = i % 10 == 0;
    const double center = positive ? 0.75 : 0.3;
    problem.features.Set(
        i, 0, static_cast<float>(center + rng.NextGaussian() * 0.07));
    problem.features.Set(
        i, 1, static_cast<float>(center + rng.NextGaussian() * 0.07));
    problem.truth[i] = positive ? 1 : 0;
  }
  return problem;
}

// First-n-rows view of a problem (the labeled set at an earlier iteration).
FeatureMatrix SliceFeatures(const FeatureMatrix& features, size_t n) {
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  return features.Gather(rows);
}

std::vector<int> SliceTruth(const std::vector<int>& truth, size_t n) {
  return std::vector<int>(truth.begin(), truth.begin() + n);
}

double F1On(const std::vector<int>& predictions,
            const std::vector<int>& truth) {
  return ComputeBinaryMetrics(predictions, truth).f1;
}

// ---- Warm-start refits: convergence ------------------------------------

TEST(WarmFitTest, SvmWarmConvergesLikeCold) {
  const Problem p = MakeProblem(400, 21);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  LinearSvm cold(LinearSvmConfig{});
  cold.Fit(p.features, p.truth);

  LinearSvm warm(LinearSvmConfig{});
  warm.Fit(early, early_truth);
  ASSERT_TRUE(warm.FitWarm(p.features, p.truth));

  const double cold_f1 = F1On(cold.PredictAll(p.features), p.truth);
  const double warm_f1 = F1On(warm.PredictAll(p.features), p.truth);
  EXPECT_GT(warm_f1, 0.8);
  EXPECT_NEAR(warm_f1, cold_f1, 0.05);
}

TEST(WarmFitTest, NeuralNetWarmConvergesLikeCold) {
  const Problem p = MakeProblem(400, 22);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  NeuralNetwork cold(NeuralNetConfig{});
  cold.Fit(p.features, p.truth);

  NeuralNetwork warm(NeuralNetConfig{});
  warm.Fit(early, early_truth);
  ASSERT_TRUE(warm.FitWarm(p.features, p.truth));

  const double cold_f1 = F1On(cold.PredictAll(p.features), p.truth);
  const double warm_f1 = F1On(warm.PredictAll(p.features), p.truth);
  EXPECT_GT(warm_f1, 0.8);
  EXPECT_NEAR(warm_f1, cold_f1, 0.08);
}

TEST(WarmFitTest, ForestWarmConvergesLikeCold) {
  const Problem p = MakeProblem(400, 23);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  RandomForestConfig config;
  config.num_trees = 20;
  RandomForest cold(config);
  cold.Fit(p.features, p.truth);

  RandomForest warm(config);
  ASSERT_TRUE(warm.FitWarm(early, early_truth));
  ASSERT_TRUE(warm.FitWarm(p.features, p.truth));

  const double cold_f1 = F1On(cold.PredictAll(p.features), p.truth);
  const double warm_f1 = F1On(warm.PredictAll(p.features), p.truth);
  EXPECT_GT(warm_f1, 0.8);
  EXPECT_NEAR(warm_f1, cold_f1, 0.05);
}

// ---- Warm-start refits: fallbacks --------------------------------------

TEST(WarmFitTest, UntrainedModelsRejectWarmFit) {
  const Problem p = MakeProblem(100, 24);
  LinearSvm svm(LinearSvmConfig{});
  EXPECT_FALSE(svm.FitWarm(p.features, p.truth));
  NeuralNetwork nn(NeuralNetConfig{});
  EXPECT_FALSE(nn.FitWarm(p.features, p.truth));
}

TEST(WarmFitTest, ForestRejectsWarmFitOnShrunkSetOrNoBootstrap) {
  const Problem p = MakeProblem(200, 25);
  RandomForestConfig config;
  config.num_trees = 10;
  RandomForest forest(config);
  ASSERT_TRUE(forest.FitWarm(p.features, p.truth));
  // Shrinking the labeled set is outside the append-only scheme.
  const FeatureMatrix small = SliceFeatures(p.features, 100);
  const std::vector<int> small_truth = SliceTruth(p.truth, 100);
  EXPECT_FALSE(forest.FitWarm(small, small_truth));

  config.bootstrap = false;
  RandomForest no_bootstrap(config);
  no_bootstrap.Fit(p.features, p.truth);
  EXPECT_FALSE(no_bootstrap.FitWarm(p.features, p.truth));
}

TEST(WarmFitTest, LearnerFallsBackColdAndCountsThePath) {
  obs::MetricsRegistry::Global().ResetAll();
  obs::SetMetricsEnabled(true);
  const Problem p = MakeProblem(200, 26);

  SvmLearner learner{LinearSvmConfig{}};
  // First warm-hinted fit has no previous weights: falls back to cold.
  learner.Fit(p.features, p.truth, FitHint::kWarm);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("ml.cold_fits").value(), 1u);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("ml.warm_fits").value(), 0u);
  // Second one resumes from the first.
  learner.Fit(p.features, p.truth, FitHint::kWarm);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("ml.warm_fits").value(), 1u);
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("ml.fit_calls").value(), 2u);
  obs::SetMetricsEnabled(false);
  obs::MetricsRegistry::Global().ResetAll();
}

// ---- Warm-start refits: restartability (bitwise) ------------------------

TEST(WarmFitTest, SvmWarmFitIsRestartable) {
  const Problem p = MakeProblem(400, 27);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  LinearSvm direct(LinearSvmConfig{});
  direct.Fit(early, early_truth);
  const std::string blob = SerializeSvm(direct);

  LinearSvm restored(LinearSvmConfig{});
  ASSERT_TRUE(DeserializeSvm(blob, &restored));

  ASSERT_TRUE(direct.FitWarm(p.features, p.truth));
  ASSERT_TRUE(restored.FitWarm(p.features, p.truth));
  EXPECT_EQ(SerializeSvm(direct), SerializeSvm(restored));
}

TEST(WarmFitTest, NeuralNetWarmFitIsRestartable) {
  const Problem p = MakeProblem(400, 28);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  NeuralNetwork direct(NeuralNetConfig{});
  direct.Fit(early, early_truth);
  const std::string blob = SerializeNeuralNet(direct);

  NeuralNetwork restored(NeuralNetConfig{});
  ASSERT_TRUE(DeserializeNeuralNet(blob, &restored));

  ASSERT_TRUE(direct.FitWarm(p.features, p.truth));
  ASSERT_TRUE(restored.FitWarm(p.features, p.truth));
  EXPECT_EQ(SerializeNeuralNet(direct), SerializeNeuralNet(restored));
}

TEST(WarmFitTest, ForestWarmFitIsRestartable) {
  const Problem p = MakeProblem(400, 29);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  RandomForestConfig config;
  config.num_trees = 20;
  RandomForest direct(config);
  ASSERT_TRUE(direct.FitWarm(early, early_truth));
  const std::string blob = SerializeForest(direct);

  RandomForest restored(config);
  ASSERT_TRUE(DeserializeForest(blob, &restored));
  EXPECT_EQ(restored.warm_fit_count(), 300u);

  ASSERT_TRUE(direct.FitWarm(p.features, p.truth));
  ASSERT_TRUE(restored.FitWarm(p.features, p.truth));
  EXPECT_EQ(SerializeForest(direct), SerializeForest(restored));
}

// ---- Forest: untouched trees are bitwise-preserved ----------------------

// Path independence pins the skip-vs-refit equality: warm-fitting at n then
// at n+1 must produce exactly the forest a single warm fit at n+1 produces.
// The incremental path skips every tree whose Poisson sample gained no new
// position, so equality proves a skipped tree IS what refitting would have
// rebuilt. With a one-row delta a substantial fraction of trees (~1/e) is
// skipped, which the trees_refit counter confirms.
TEST(ForestWarmTest, SkippedTreesEqualRefitResult) {
  const Problem p = MakeProblem(301, 30);
  const FeatureMatrix early = SliceFeatures(p.features, 300);
  const std::vector<int> early_truth = SliceTruth(p.truth, 300);

  RandomForestConfig config;
  config.num_trees = 30;
  RandomForest incremental(config);
  ASSERT_TRUE(incremental.FitWarm(early, early_truth));
  size_t trees_refit = 0;
  ASSERT_TRUE(incremental.FitWarm(p.features, p.truth, &trees_refit));
  // A one-row growth leaves each tree untouched with probability e^-1.
  EXPECT_LT(trees_refit, 30u);
  EXPECT_GT(trees_refit, 0u);

  RandomForest oneshot(config);
  ASSERT_TRUE(oneshot.FitWarm(p.features, p.truth));
  EXPECT_EQ(SerializeForest(incremental), SerializeForest(oneshot));
}

TEST(ForestWarmTest, ColdFitResetsTheWarmWatermark) {
  const Problem p = MakeProblem(200, 31);
  RandomForestConfig config;
  config.num_trees = 10;
  RandomForest forest(config);
  ASSERT_TRUE(forest.FitWarm(p.features, p.truth));
  EXPECT_EQ(forest.warm_fit_count(), 200u);
  forest.Fit(p.features, p.truth);
  EXPECT_EQ(forest.warm_fit_count(), 0u);
  // The serialized form of a cold-fit forest carries no watermark line.
  EXPECT_EQ(SerializeForest(forest).find("warm "), std::string::npos);
}

// ---- Session-level warm-start modes --------------------------------------

struct Env {
  ActivePool pool;
  NoisyOracle oracle;
  ProgressiveEvaluator evaluator;
  SvmLearner learner;
  QbcSelector selector;

  explicit Env(const Problem& problem)
      : pool(problem.features),
        oracle(problem.truth, 0.05, 99),
        evaluator(problem.truth),
        learner{LinearSvmConfig{}},
        selector(3, 7) {}
};

ActiveLearningConfig TestConfig(WarmStartMode mode) {
  ActiveLearningConfig config;
  config.seed_size = 30;
  config.batch_size = 10;
  config.max_labels = 100;
  config.plateau_window = 50;
  config.warm_start = mode;
  return config;
}

void Drive(LabelingSession* session, size_t stop_after = 0) {
  while (!session->finished()) {
    if (stop_after > 0 && session->state() == SessionState::kNeedsStep &&
        session->curve().size() >= stop_after) {
      return;
    }
    switch (session->state()) {
      case SessionState::kNeedsStep:
        ASSERT_TRUE(session->Step());
        break;
      case SessionState::kBatchReady:
        session->NextBatch();
        break;
      case SessionState::kAwaitingLabels:
        ASSERT_TRUE(session->SubmitLabels());
        break;
      default:
        FAIL() << "unexpected state";
    }
  }
}

void ExpectCurvesIdentical(const std::vector<IterationStats>& expected,
                           const std::vector<IterationStats>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    const IterationStats& a = expected[i];
    const IterationStats& b = actual[i];
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_EQ(a.labels_used, b.labels_used);
    EXPECT_EQ(a.metrics.precision, b.metrics.precision);  // bitwise doubles
    EXPECT_EQ(a.metrics.recall, b.metrics.recall);
    EXPECT_EQ(a.metrics.f1, b.metrics.f1);
    EXPECT_EQ(a.scored_examples, b.scored_examples);
  }
}

std::vector<IterationStats> RunSession(const Problem& problem,
                                       WarmStartMode mode) {
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig(mode));
  Drive(&session);
  EXPECT_EQ(session.state(), SessionState::kFinished);
  return std::move(session).TakeCurve();
}

TEST(WarmStartSessionTest, OnCurveConvergesWithinTolerance) {
  const Problem problem = MakeProblem(600, 34);
  const std::vector<IterationStats> off =
      RunSession(problem, WarmStartMode::kOff);
  const std::vector<IterationStats> warm =
      RunSession(problem, WarmStartMode::kOn);
  ASSERT_FALSE(warm.empty());
  double off_best = 0.0, warm_best = 0.0;
  for (const IterationStats& it : off) off_best = std::max(off_best, it.metrics.f1);
  for (const IterationStats& it : warm) warm_best = std::max(warm_best, it.metrics.f1);
  EXPECT_NEAR(warm_best, off_best, 0.05);
  EXPECT_NEAR(warm.back().metrics.f1, off.back().metrics.f1, 0.05);
}

// ---- Warm save/resume -------------------------------------------------

// Pause a warm-start=on run at an iteration boundary, round-trip the ALSS
// container, restore into a fresh environment, and finish: the stitched
// curve must equal the uninterrupted warm run bitwise (warm SVM refits are
// deterministic-restartable).
TEST(WarmStartSessionTest, WarmSaveResumeBitwiseIdentical) {
  const Problem problem = MakeProblem(600, 36);
  const std::vector<IterationStats> golden =
      RunSession(problem, WarmStartMode::kOn);
  ASSERT_GE(golden.size(), 4u);

  for (const size_t boundary : {size_t{1}, golden.size() / 2}) {
    SCOPED_TRACE("boundary " + std::to_string(boundary));
    Env first_env(problem);
    LabelingSession first(first_env.learner, first_env.selector,
                          first_env.oracle, first_env.evaluator,
                          first_env.pool, TestConfig(WarmStartMode::kOn));
    Drive(&first, boundary);
    ASSERT_EQ(first.state(), SessionState::kNeedsStep);

    SessionSnapshot saved;
    std::string error;
    ASSERT_TRUE(first.SaveTo(&saved, &error)) << error;

    SessionSnapshot loaded;
    ASSERT_TRUE(SessionSnapshot::Parse(saved.Serialize(), &loaded, &error))
        << error;
    // The snapshot's loop config carries the mode.
    ActiveLearningConfig decoded;
    ASSERT_TRUE(DecodeSessionLoopConfig(loaded, &decoded));
    EXPECT_EQ(decoded.warm_start, WarmStartMode::kOn);

    Env second_env(problem);
    std::unique_ptr<LabelingSession> resumed = LabelingSession::Restore(
        second_env.learner, second_env.selector, second_env.oracle,
        second_env.evaluator, second_env.pool, loaded, &error);
    ASSERT_NE(resumed, nullptr) << error;
    Drive(resumed.get());
    ASSERT_EQ(resumed->state(), SessionState::kFinished);
    ExpectCurvesIdentical(golden, std::move(*resumed).TakeCurve());
  }
}

TEST(WarmStartModeTest, NamesRoundTrip) {
  for (const WarmStartMode mode :
       {WarmStartMode::kOff, WarmStartMode::kOn}) {
    WarmStartMode parsed = WarmStartMode::kOff;
    ASSERT_TRUE(ParseWarmStartMode(WarmStartModeName(mode), &parsed));
    EXPECT_EQ(parsed, mode);
  }
  WarmStartMode parsed = WarmStartMode::kOff;
  EXPECT_FALSE(ParseWarmStartMode("warm", &parsed));
  EXPECT_FALSE(ParseWarmStartMode("auto", &parsed));  // Retired mode.
  EXPECT_FALSE(ParseWarmStartMode("", &parsed));
}

}  // namespace
}  // namespace alem
