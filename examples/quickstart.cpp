// Quickstart: match two product catalogs with active learning.
//
// This is the smallest end-to-end use of the library:
//   1. get an EM dataset (here: a synthetic Abt-Buy analogue),
//   2. block the Cartesian pair space,
//   3. extract similarity features,
//   4. run active learning with the paper's best combination
//      (random forest + learner-aware QBC),
//   5. inspect the progressive F1 curve.

#include <cstdio>

#include "core/harness.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;

  // Steps 1-3 in one call: generate -> block -> featurize.
  const PreparedDataset data = PrepareDataset({.profile = AbtBuyProfile(),
                                               .data_seed = 42});
  std::printf("dataset %s: %zu candidate pairs after blocking, %zu true "
              "matches (skew %.3f)\n",
              data.name.c_str(), data.pairs.size(), data.num_matches,
              data.class_skew);

  // Step 4: random forest of 20 trees, trees-as-committee selection,
  // 30-example seed, 10 labels per iteration, stop at 300 labels.
  RunConfig config;
  config.approach = TreesSpec(20);
  config.max_labels = 300;
  const RunResult result = RunActiveLearning(data, config);

  // Step 5: the learning curve.
  std::printf("\n%8s %10s %10s %10s\n", "#labels", "precision", "recall",
              "F1");
  for (const IterationStats& it : result.curve) {
    std::printf("%8zu %10.3f %10.3f %10.3f\n", it.labels_used,
                it.metrics.precision, it.metrics.recall, it.metrics.f1);
  }
  std::printf("\nbest F1 %.3f reached with %zu labels (%.2fs total user "
              "wait)\n",
              result.best_f1, result.labels_to_converge,
              result.total_wait_seconds);
  return 0;
}
