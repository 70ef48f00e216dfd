#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>
#include <string>

#include "core/learner.h"
#include "core/pool.h"
#include "core/selector.h"
#include "parallel/pool.h"
#include "util/rng.h"

namespace alem {
namespace {

// Pool over 1-D features in [0, 1]; a linear boundary at 0.5 makes margins
// directly interpretable.
ActivePool MakeLinePool(size_t n) {
  FeatureMatrix features(n, 1);
  for (size_t i = 0; i < n; ++i) {
    features.Set(i, 0, static_cast<float>(i) / static_cast<float>(n - 1));
  }
  return ActivePool(std::move(features));
}

void LabelEndpoints(ActivePool& pool, size_t n) {
  // Label a few points at each extreme so learners have both classes.
  for (size_t i = 0; i < 5; ++i) {
    pool.AddLabel(i, 0);
    pool.AddLabel(n - 1 - i, 1);
  }
}

SvmLearner TrainedSvm(const ActivePool& pool) {
  SvmLearner learner{LinearSvmConfig{}};
  learner.Fit(pool.ActiveLabeledFeatures(), pool.ActiveLabeledLabels());
  return learner;
}

// ---- Compatibility matrix (Fig. 2) ----

TEST(SelectorCompatibilityTest, MatchesClassHierarchy) {
  SvmLearner svm;
  NeuralNetLearner nn;
  ForestLearner forest;
  RuleLearner rules;

  MarginSelector margin;
  EXPECT_TRUE(margin.CompatibleWith(svm));
  EXPECT_TRUE(margin.CompatibleWith(nn));
  EXPECT_FALSE(margin.CompatibleWith(forest));
  EXPECT_FALSE(margin.CompatibleWith(rules));

  QbcSelector qbc(2, 1);
  EXPECT_TRUE(qbc.CompatibleWith(svm));
  EXPECT_TRUE(qbc.CompatibleWith(nn));
  EXPECT_TRUE(qbc.CompatibleWith(forest));
  EXPECT_TRUE(qbc.CompatibleWith(rules));

  ForestQbcSelector forest_qbc(1);
  EXPECT_FALSE(forest_qbc.CompatibleWith(svm));
  EXPECT_TRUE(forest_qbc.CompatibleWith(forest));

  LfpLfnSelector lfp_lfn;
  EXPECT_TRUE(lfp_lfn.CompatibleWith(rules));
  EXPECT_FALSE(lfp_lfn.CompatibleWith(svm));
  EXPECT_FALSE(lfp_lfn.CompatibleWith(forest));

  RandomSelector random(1);
  EXPECT_TRUE(random.CompatibleWith(svm));
  EXPECT_TRUE(random.CompatibleWith(rules));
}

// ---- RandomSelector ----

TEST(RandomSelectorTest, SelectsRequestedCountWithoutDuplicates) {
  ActivePool pool = MakeLinePool(100);
  LabelEndpoints(pool, 100);
  SvmLearner learner = TrainedSvm(pool);
  RandomSelector selector(3);
  const std::vector<size_t> batch = selector.Select(learner, pool, 10, nullptr);
  EXPECT_EQ(batch.size(), 10u);
  std::set<size_t> unique(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const size_t row : batch) {
    EXPECT_FALSE(pool.IsLabeled(row));
  }
}

TEST(RandomSelectorTest, CapsAtUnlabeledCount) {
  ActivePool pool = MakeLinePool(12);
  LabelEndpoints(pool, 12);  // 10 labeled, 2 left.
  SvmLearner learner = TrainedSvm(pool);
  RandomSelector selector(3);
  EXPECT_EQ(selector.Select(learner, pool, 10, nullptr).size(), 2u);
}

// ---- MarginSelector ----

TEST(MarginSelectorTest, PicksExamplesClosestToBoundary) {
  const size_t n = 101;
  ActivePool pool = MakeLinePool(n);
  LabelEndpoints(pool, n);
  SvmLearner learner = TrainedSvm(pool);

  MarginSelector selector;
  SelectionTiming timing;
  const std::vector<size_t> batch = selector.Select(learner, pool, 5, &timing);
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(timing.scored_examples, pool.unlabeled_rows().size());

  // All selected rows must have margins no larger than every unselected one.
  double max_selected = 0.0;
  for (const size_t row : batch) {
    max_selected = std::max(
        max_selected, std::abs(learner.Margin(pool.features().Row(row))));
  }
  for (const size_t row : pool.unlabeled_rows()) {
    if (std::find(batch.begin(), batch.end(), row) != batch.end()) continue;
    EXPECT_GE(std::abs(learner.Margin(pool.features().Row(row))) + 1e-12,
              max_selected);
  }
}

TEST(MarginSelectorTest, BlockingPrunesZeroDimensionExamples) {
  // Two features; feature 0 carries the signal, feature 1 is noise. Give
  // some rows an all-zero signal dimension.
  const size_t n = 60;
  FeatureMatrix features(n, 2);
  for (size_t i = 0; i < n; ++i) {
    features.Set(i, 0, i % 3 == 0 ? 0.0f : (i < n / 2 ? 0.2f : 0.9f));
    features.Set(i, 1, 0.5f);
  }
  ActivePool pool(std::move(features));
  for (size_t i = 0; i < 6; ++i) {
    pool.AddLabel(1 + i, 0);          // Low-signal rows.
    pool.AddLabel(n - 1 - i, 1);      // High-signal rows.
  }
  SvmLearner learner = TrainedSvm(pool);

  MarginSelector blocking_selector(/*blocking_dims=*/1);
  SelectionTiming timing;
  const std::vector<size_t> batch =
      blocking_selector.Select(learner, pool, 5, &timing);
  EXPECT_GT(timing.pruned_examples, 0u);
  EXPECT_EQ(timing.pruned_examples + timing.scored_examples,
            pool.unlabeled_rows().size());
  // Pruned rows (feature0 == 0) must not be selected.
  for (const size_t row : batch) {
    EXPECT_NE(pool.features().At(row, 0), 0.0f);
  }
}

TEST(MarginSelectorTest, NoBlockingScoresEverything) {
  ActivePool pool = MakeLinePool(50);
  LabelEndpoints(pool, 50);
  SvmLearner learner = TrainedSvm(pool);
  MarginSelector selector(0);
  SelectionTiming timing;
  selector.Select(learner, pool, 5, &timing);
  EXPECT_EQ(timing.pruned_examples, 0u);
  EXPECT_EQ(timing.scored_examples, pool.unlabeled_rows().size());
}

// ---- QbcSelector ----

TEST(QbcSelectorTest, ReportsCommitteeAndScoringTime) {
  ActivePool pool = MakeLinePool(80);
  LabelEndpoints(pool, 80);
  SvmLearner learner = TrainedSvm(pool);
  QbcSelector selector(4, 11);
  SelectionTiming timing;
  const std::vector<size_t> batch = selector.Select(learner, pool, 5, &timing);
  EXPECT_EQ(batch.size(), 5u);
  EXPECT_GT(timing.committee_seconds, 0.0);
  EXPECT_GE(timing.scoring_seconds, 0.0);
  EXPECT_EQ(timing.scored_examples, pool.unlabeled_rows().size());
}

TEST(QbcSelectorTest, PrefersDisagreementRegion) {
  // The ambiguous region of a 1-D threshold problem is the middle; QBC picks
  // should concentrate closer to the boundary than random expectation.
  const size_t n = 201;
  ActivePool pool = MakeLinePool(n);
  LabelEndpoints(pool, n);
  SvmLearner learner = TrainedSvm(pool);
  QbcSelector selector(8, 5);
  const std::vector<size_t> batch = selector.Select(learner, pool, 10, nullptr);
  double mean_distance = 0.0;
  for (const size_t row : batch) {
    mean_distance += std::abs(pool.features().At(row, 0) - 0.5f);
  }
  mean_distance /= static_cast<double>(batch.size());
  EXPECT_LT(mean_distance, 0.25);  // Random selection would average ~0.25+.
}

TEST(QbcSelectorTest, WorksWithForestLearner) {
  ActivePool pool = MakeLinePool(60);
  LabelEndpoints(pool, 60);
  RandomForestConfig config;
  config.num_trees = 3;
  ForestLearner learner(config);
  learner.Fit(pool.ActiveLabeledFeatures(), pool.ActiveLabeledLabels());
  QbcSelector selector(3, 2);
  EXPECT_EQ(selector.Select(learner, pool, 4, nullptr).size(), 4u);
}

// ---- ForestQbcSelector ----

TEST(ForestQbcSelectorTest, ZeroCommitteeTime) {
  ActivePool pool = MakeLinePool(100);
  LabelEndpoints(pool, 100);
  RandomForestConfig config;
  config.num_trees = 10;
  ForestLearner learner(config);
  learner.Fit(pool.ActiveLabeledFeatures(), pool.ActiveLabeledLabels());

  ForestQbcSelector selector(9);
  SelectionTiming timing;
  const std::vector<size_t> batch = selector.Select(learner, pool, 5, &timing);
  EXPECT_EQ(batch.size(), 5u);
  EXPECT_EQ(timing.committee_seconds, 0.0);
  EXPECT_EQ(timing.scored_examples, pool.unlabeled_rows().size());
}

TEST(ForestQbcSelectorTest, SelectsMaximumVarianceExamples) {
  ActivePool pool = MakeLinePool(100);
  LabelEndpoints(pool, 100);
  RandomForestConfig config;
  config.num_trees = 10;
  ForestLearner learner(config);
  learner.Fit(pool.ActiveLabeledFeatures(), pool.ActiveLabeledLabels());

  ForestQbcSelector selector(9);
  const std::vector<size_t> batch = selector.Select(learner, pool, 3, nullptr);
  double min_selected_variance = 1.0;
  for (const size_t row : batch) {
    const double p = learner.PositiveFraction(pool.features().Row(row));
    min_selected_variance = std::min(min_selected_variance, p * (1 - p));
  }
  // No unselected example may exceed the lowest selected variance.
  for (const size_t row : pool.unlabeled_rows()) {
    if (std::find(batch.begin(), batch.end(), row) != batch.end()) continue;
    const double p = learner.PositiveFraction(pool.features().Row(row));
    EXPECT_LE(p * (1 - p), min_selected_variance + 1e-12);
  }
}

// ---- LfpLfnSelector ----

TEST(LfpLfnSelectorTest, BootstrapModeSelectsMostSimilar) {
  // Untrained/empty DNF: the selector should propose high-proxy rows.
  FeatureMatrix features(20, 4);
  for (size_t i = 0; i < 20; ++i) {
    // Rows 15..19 satisfy all atoms; the rest none.
    for (size_t a = 0; a < 4; ++a) {
      features.Set(i, a, i >= 15 ? 1.0f : 0.0f);
    }
  }
  ActivePool pool(std::move(features));
  RuleLearner learner;
  // Train on something trivial so trained() holds but no rule is learned.
  FeatureMatrix empty_features(2, 4);
  learner.Fit(empty_features, {0, 0});

  LfpLfnSelector selector;
  const std::vector<size_t> batch = selector.Select(learner, pool, 3, nullptr);
  ASSERT_EQ(batch.size(), 3u);
  for (const size_t row : batch) {
    EXPECT_GE(row, 15u);
  }
}

TEST(LfpLfnSelectorTest, EmptyWhenNoCandidates) {
  // A trained rule that matches nothing unlabeled, and no rule-minus hits:
  // selection must come back empty (termination signal).
  FeatureMatrix features(10, 3);  // All-zero rows.
  ActivePool pool(std::move(features));

  // Build training data that teaches the rule (atom0 AND atom1).
  FeatureMatrix train(40, 3);
  std::vector<int> labels(40);
  for (size_t i = 0; i < 40; ++i) {
    const bool positive = i % 2 == 0;
    train.Set(i, 0, positive ? 1.0f : 0.0f);
    train.Set(i, 1, positive ? 1.0f : 0.0f);
    labels[i] = positive ? 1 : 0;
  }
  RuleLearner learner;
  learner.Fit(train, labels);
  ASSERT_FALSE(learner.dnf().conjunctions.empty());

  LfpLfnSelector selector;
  const std::vector<size_t> batch = selector.Select(learner, pool, 5, nullptr);
  EXPECT_TRUE(batch.empty());
}

// ---- Bitwise pins across all seven selectors ----

// One fixed 5-D pool shared by every selector pin: dims 0-2 are 0/1 atoms
// (so rules are learnable and margin blocking can prune rows whose top
// dimensions are all zero), dims 3-4 are continuous and zero in about a
// third of the rows. Ground truth is a two-clause DNF with a few flipped
// labels so committees keep disagreeing.
struct PinProblem {
  ActivePool pool;
  std::vector<int> truth;
};

PinProblem MakePinProblem() {
  constexpr size_t kRows = 120;
  constexpr size_t kDims = 5;
  Rng rng(2024);
  FeatureMatrix features(kRows, kDims);
  std::vector<int> truth(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    float x[kDims];
    for (size_t d = 0; d < 3; ++d) {
      x[d] = rng.NextDouble() < 0.45 ? 1.0f : 0.0f;
    }
    for (size_t d = 3; d < kDims; ++d) {
      const double value = rng.NextDouble();
      x[d] = rng.NextDouble() < 0.35 ? 0.0f : static_cast<float>(value);
    }
    for (size_t d = 0; d < kDims; ++d) features.Set(i, d, x[d]);
    const bool match = (x[0] == 1.0f && x[1] == 1.0f) ||
                       (x[2] == 1.0f && x[3] > 0.6f);
    truth[i] = (match != (i % 17 == 0)) ? 1 : 0;
  }
  PinProblem problem{ActivePool(std::move(features)), std::move(truth)};
  // Seed set: the first four rows of each class.
  size_t positives = 0, negatives = 0;
  for (size_t i = 0; i < kRows; ++i) {
    size_t& seen = problem.truth[i] == 1 ? positives : negatives;
    if (seen < 4) {
      problem.pool.AddLabel(i, problem.truth[i]);
      ++seen;
    }
  }
  return problem;
}

// What one Select round must reproduce bitwise. Expected values were
// recorded from the per-selector Select implementations that preceded the
// shared ExampleSelector::Select skeleton.
struct PinRound {
  std::vector<size_t> picks;
  size_t scored = 0;
  size_t pruned = 0;
  std::string state;  // SaveState() after the round.

  bool operator==(const PinRound&) const = default;
};

void PrintTo(const PinRound& round, std::ostream* out) {
  *out << "{picks:";
  for (const size_t row : round.picks) *out << " " << row;
  *out << ", scored " << round.scored << ", pruned " << round.pruned
       << ", state \"" << round.state << "\"}";
}

struct PinCase {
  const char* name;
  std::function<std::unique_ptr<Learner>()> learner;
  std::function<std::unique_ptr<ExampleSelector>()> selector;
  std::vector<PinRound> expected;
};

// Select, label the picks from ground truth, refit — kRounds times.
std::vector<PinRound> RunPinRounds(const PinCase& pin) {
  constexpr int kRounds = 4;
  constexpr size_t kBatch = 4;
  PinProblem problem = MakePinProblem();
  ActivePool& pool = problem.pool;
  const std::unique_ptr<Learner> learner = pin.learner();
  const std::unique_ptr<ExampleSelector> selector = pin.selector();
  learner->Fit(pool.ActiveLabeledFeatures(), pool.ActiveLabeledLabels());
  std::vector<PinRound> rounds;
  for (int round = 0; round < kRounds; ++round) {
    SelectionTiming timing;
    PinRound actual;
    actual.picks = selector->Select(*learner, pool, kBatch, &timing);
    actual.scored = timing.scored_examples;
    actual.pruned = timing.pruned_examples;
    actual.state = selector->SaveState();
    for (const size_t row : actual.picks) {
      pool.AddLabel(row, problem.truth[row]);
    }
    learner->Fit(pool.ActiveLabeledFeatures(), pool.ActiveLabeledLabels());
    rounds.push_back(std::move(actual));
  }
  return rounds;
}

std::vector<PinCase> PinCases() {
  auto svm = [] { return std::make_unique<SvmLearner>(); };
  auto forest = [] {
    RandomForestConfig config;
    config.num_trees = 5;
    return std::make_unique<ForestLearner>(config);
  };
  auto rules = [] { return std::make_unique<RuleLearner>(); };
  return {
      {"Random", svm, [] { return std::make_unique<RandomSelector>(31); },
       {
        {{32, 36, 102, 11}, 0, 0,
         "xoshiro256ss-v1 6567ecb5d2501d24 ad047f23a1232d40 "
         "312c238c91d5846c d87c6c21a291c08e 0 0"},
        {{91, 15, 19, 35}, 0, 0,
         "xoshiro256ss-v1 e89f30a10de84908 efc2011f45a6b88c "
         "2afa826f9f0c0810 6585d834b4fdfb2b 0 0"},
        {{111, 75, 45, 72}, 0, 0,
         "xoshiro256ss-v1 e72279ccf5583a30 104dd3b2dcc1a89c "
         "11cd8c89c177dc18 4411f7ff4b37b0ba 0 0"},
        {{59, 22, 42, 49}, 0, 0,
         "xoshiro256ss-v1 50725b54a93ecfe9 6302be6c65253d0 "
         "b6099baf9ccdc338 e2d667aeb335b2a5 0 0"},
       }},
      {"QBC", svm, [] { return std::make_unique<QbcSelector>(3, 37); },
       {
        {{72, 80, 90, 65}, 112, 0,
         "xoshiro256ss-v1 c9af93593be2f38c b22af53ea76aac76 "
         "40c2b8a479857745 9f4e17fcbd56a9ae 0 0"},
        {{117, 98, 36, 119}, 108, 0,
         "xoshiro256ss-v1 5f37aaf4588b9dac bc9cca70de585a22 "
         "3a5cdea96a2b729d ad7f177f9b6def2a 0 0"},
        {{102, 60, 89, 97}, 104, 0,
         "xoshiro256ss-v1 2182cbea8ae77511 66a9013b77a27286 "
         "c30566e7f17cc795 2bb6adead78232eb 0 0"},
        {{29, 25, 38, 11}, 100, 0,
         "xoshiro256ss-v1 e0be62aed364c17a 8428944b86947fa "
         "d4003d01345487f8 7e80d18460b2bf34 0 0"},
       }},
      {"ForestQBC", forest,
       [] { return std::make_unique<ForestQbcSelector>(41); },
       {
        {{117, 53, 18, 35}, 112, 0,
         "xoshiro256ss-v1 161fccd5616b4a8e 933fb8438ee87684 "
         "ff9d76708e0abbc8 1078e0f22917790a 0 0"},
        {{59, 6, 27, 119}, 108, 0,
         "xoshiro256ss-v1 95589464c6944500 7abd02e6618987c2 "
         "9905a7750269f146 e1f1d068eb1634ff 0 0"},
        {{86, 102, 74, 80}, 104, 0,
         "xoshiro256ss-v1 e1446ea4c0bf63d 76e031f7a5743384 "
         "991f002cb79b446 f667b3699a51d153 0 0"},
        {{50, 89, 52, 33}, 100, 0,
         "xoshiro256ss-v1 8e93c474732e14ea 7165871f220671ff "
         "646afc00e07a427b bc5af010f053c7e4 0 0"},
       }},
      {"Margin", svm,
       [] { return std::make_unique<MarginSelector>(/*blocking_dims=*/2); },
       {
        {{49, 78, 82, 64}, 84, 28, ""},
        {{80, 71, 92, 27}, 88, 20, ""},
        {{104, 7, 29, 47}, 78, 26, ""},
        {{63, 107, 90, 62}, 74, 26, ""},
       }},
      {"IWAL", svm, [] { return std::make_unique<IwalSelector>(3, 0.1, 43); },
       {
        {{107, 47, 20, 80}, 4, 0,
         "xoshiro256ss-v1 7b1886b5121af32 2d82ff990f88ce12 "
         "d117512bf48264e6 343e2f4894b7682d 0 0"},
        {{7, 89, 117, 93}, 5, 0,
         "xoshiro256ss-v1 cea5e10391473c2c 8d8e6bcc53afc703 "
         "80660f5ef1a29a59 2ea7c55b593f3d82 0 0"},
        {{16, 39, 98, 105}, 9, 0,
         "xoshiro256ss-v1 f2f00ecef23042a5 a648889a7c5611ba "
         "b8a09abba9d9fa5f d40c8272a04b2f60 0 0"},
        {{97, 109, 95, 34}, 8, 0,
         "xoshiro256ss-v1 676fe6a488a9c218 c46cd7b5af521ea8 "
         "8abc8ad09f3a248e 6556911342b0d25b 0 0"},
       }},
      {"DensityMargin", svm,
       [] { return std::make_unique<DensityWeightedSelector>(1.0, 47); },
       {
        {{49, 78, 82, 64}, 112, 0,
         "xoshiro256ss-v1 52ba97c6a8c21f09 cf26fc0c3f069f4 "
         "a691fe2d2e2b9963 6b7f2d1794598d1f 0 0"},
        {{80, 71, 92, 27}, 108, 0,
         "xoshiro256ss-v1 76147452c1b11708 f41e97bbc8aed4f3 "
         "99b72d5cf7826445 1031b92efcb83853 0 0"},
        {{104, 7, 29, 65}, 104, 0,
         "xoshiro256ss-v1 97a9a0b4e0b6bf79 8f073f7facd839c6 "
         "71e4beb10c05e84c 4f84d773ea40d33c 0 0"},
        {{97, 107, 41, 98}, 100, 0,
         "xoshiro256ss-v1 bf30abb2e6d6b0e8 b545fd4e281fe1de "
         "fe39f2acca48156e 56128507a0b56693 0 0"},
       }},
      {"LFP/LFN", rules,
       [] { return std::make_unique<LfpLfnSelector>(); },
       {
        {{20, 43, 42, 96}, 112, 0, ""},
        {{103, 92, 71, 102}, 108, 0, ""},
        {{86, 18, 27, 57}, 104, 0, ""},
        {{15, 72, 35, 89}, 100, 0, ""},
       }},
  };
}

TEST(SelectorPinTest, EverySelectorReplaysBitwiseAtOneAndFourThreads) {
  const int previous_threads = parallel::NumThreads();
  for (const PinCase& pin : PinCases()) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(std::string(pin.name) + " at " + std::to_string(threads) +
                   " threads");
      parallel::SetNumThreads(threads);
      const std::vector<PinRound> actual = RunPinRounds(pin);
      EXPECT_EQ(actual, pin.expected);
    }
  }
  parallel::SetNumThreads(previous_threads);
}

}  // namespace
}  // namespace alem
