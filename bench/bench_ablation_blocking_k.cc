// Ablation (DESIGN.md §5.2): number of blocking dimensions K for
// selection-time blocking (Section 5.1 of the paper). K = 0 disables
// blocking (equivalent to using every dimension). Small K prunes more
// margin computations; quality should stay flat until K gets so small that
// informative ambiguous examples are pruned away.

#include <cstdio>

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader("Ablation: blocking dimensions K (Linear-Margin, Abt-Buy)",
                 "pruned%% = margin computations skipped by blocking");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const PreparedDataset data =
      PrepareDataset({.profile = AbtBuyProfile(),
                      .data_seed = 7,
                      .scale = b::ScaleFromEnv()});

  std::printf("%8s %8s %14s %10s %16s\n", "K", "bestF1", "labels@conv",
              "pruned%", "scoringTime(s)");
  for (const size_t k : {size_t{1}, size_t{2}, size_t{5}, size_t{10},
                         size_t{0}}) {
    const RunResult result = b::Run(data, LinearMarginSpec(k), max_labels);
    size_t scored = 0;
    size_t pruned = 0;
    double scoring_seconds = 0.0;
    for (const IterationStats& stats : result.curve) {
      scored += stats.scored_examples;
      pruned += stats.pruned_examples;
      scoring_seconds += stats.scoring_seconds;
    }
    const double pruned_percent =
        scored + pruned == 0
            ? 0.0
            : 100.0 * static_cast<double>(pruned) /
                  static_cast<double>(scored + pruned);
    std::printf("%8s %8.3f %14zu %10.1f %16.4f\n",
                k == 0 ? "all" : std::to_string(k).c_str(), result.best_f1,
                result.labels_to_converge, pruned_percent, scoring_seconds);
  }
  return 0;
}
