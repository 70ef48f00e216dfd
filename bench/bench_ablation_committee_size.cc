// Ablation (DESIGN.md §5.4): bootstrap committee size B for learner-agnostic
// QBC on linear SVMs. Larger committees reduce selection randomness (fewer
// variance ties) at linearly growing committee-creation cost — the trade-off
// Section 4.1 of the paper describes.

#include <cstdio>

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader("Ablation: QBC committee size (Linear SVM, Abt-Buy)",
                 "quality vs committee-creation cost as B grows");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const PreparedDataset data =
      PrepareDataset({.profile = AbtBuyProfile(),
                      .data_seed = 7,
                      .scale = b::ScaleFromEnv()});

  std::printf("%12s %8s %14s %18s %18s\n", "#committee", "bestF1",
              "labels@conv", "committeeTime(s)", "scoringTime(s)");
  for (const int committee : {2, 5, 10, 20, 32}) {
    const RunResult result =
        b::Run(data, LinearQbcSpec(committee), max_labels);
    double committee_seconds = 0.0;
    double scoring_seconds = 0.0;
    for (const IterationStats& stats : result.curve) {
      committee_seconds += stats.committee_seconds;
      scoring_seconds += stats.scoring_seconds;
    }
    std::printf("%12d %8.3f %14zu %18.3f %18.3f\n", committee,
                result.best_f1, result.labels_to_converge, committee_seconds,
                scoring_seconds);
  }
  return 0;
}
