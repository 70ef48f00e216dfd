// Ablation (DESIGN.md §5): labeling batch size. The paper labels 10
// examples per iteration. Smaller batches re-train more often per label
// (better label efficiency, more user wait); larger batches amortize
// training but select with a staler model.

#include <cstdio>

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader("Ablation: labeling batch size (Trees(20), Abt-Buy)",
                 "paper default batch = 10 labels per iteration");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const PreparedDataset data =
      PrepareDataset({.profile = AbtBuyProfile(),
                      .data_seed = 7,
                      .scale = b::ScaleFromEnv()});

  std::printf("%8s %8s %14s %12s %14s\n", "batch", "bestF1", "labels@conv",
              "iterations", "totalWait(s)");
  for (const size_t batch : {size_t{1}, size_t{5}, size_t{10}, size_t{20},
                             size_t{50}}) {
    RunConfig config;
    config.approach = TreesSpec(20);
    config.max_labels = max_labels;
    config.batch_size = batch;
    const RunResult result = RunActiveLearning(data, config);
    std::printf("%8zu %8.3f %14zu %12zu %14.2f\n", batch, result.best_f1,
                result.labels_to_converge, result.curve.size(),
                result.total_wait_seconds);
  }
  return 0;
}
