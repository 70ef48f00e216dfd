// Ablation: majority-vote label correction under crowd noise.
//
// Section 6.2 of the paper notes that real crowdsourced pipelines regulate
// noisy labels with techniques like majority voting, which its noisy-Oracle
// experiments deliberately omit. This bench quantifies the rescue: Trees(20)
// on Abt-Buy at 20% and 30% worker noise, with 1 (no correction), 3, and 5
// independent votes per example.

#include <cstdio>

#include "bench/bench_util.h"
#include "core/active_loop.h"
#include "core/evaluator.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Ablation: majority-vote label correction (Trees(20), Abt-Buy)",
      "n votes per example at per-worker noise p; effective noise = "
      "P[Binomial(n,p) > n/2]");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const PreparedDataset data =
      PrepareDataset({.profile = AbtBuyProfile(),
                      .data_seed = 7,
                      .scale = b::ScaleFromEnv()});

  std::printf("%8s %8s %8s %14s\n", "noise", "#votes", "bestF1",
              "labels@conv");
  for (const double noise : {0.2, 0.3}) {
    for (const int votes : {1, 3, 5}) {
      ActivePool pool(data.float_features);
      MajorityVoteOracle oracle(data.truth, noise, votes, 42);
      ProgressiveEvaluator evaluator(data.truth);
      RandomForestConfig forest_config;
      forest_config.num_trees = 20;
      ForestLearner learner(forest_config);
      ForestQbcSelector selector(9);
      ActiveLearningConfig config;
      config.max_labels = max_labels;
      ActiveLearningLoop loop(learner, selector, oracle, evaluator, config);
      const auto curve = loop.Run(pool);

      double best_f1 = 0.0;
      size_t best_labels = 0;
      for (const IterationStats& stats : curve) {
        if (stats.metrics.f1 > best_f1) {
          best_f1 = stats.metrics.f1;
          best_labels = stats.labels_used;
        }
      }
      std::printf("%7.0f%% %8d %8.3f %14zu\n", noise * 100, votes, best_f1,
                  best_labels);
    }
  }
  return 0;
}
