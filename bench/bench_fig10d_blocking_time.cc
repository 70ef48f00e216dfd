// Regenerates Fig. 10d: the effect of selection-time blocking and active
// ensembles on margin example-scoring time (linear classifier, Cora).
// Paper shape: margin(1Dim) scores fewer examples than margin(allDim);
// the ensemble's scoring time collapses in late iterations as accepted
// classifiers' coverage shrinks the unlabeled pool.

#include <cstdio>

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Fig. 10d: Effect of Blocking and Ensemble on Linear Classifier "
      "selection time (Cora)",
      "scoring seconds per iteration; pruned = examples skipped by blocking");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const PreparedDataset data =
      PrepareDataset({.profile = CoraProfile(),
                      .data_seed = 7,
                      .scale = b::ScaleFromEnv()});

  const RunResult blocked = b::Run(data, LinearMarginSpec(1), max_labels);
  const RunResult full = b::Run(data, LinearMarginSpec(0), max_labels);
  const RunResult ensemble =
      b::Run(data, LinearMarginEnsembleSpec(), max_labels);

  b::PrintSeriesTable(
      "Example scoring time (seconds)",
      {b::CurveScoringSeconds("Margin(1Dim)", blocked.curve),
       b::CurveScoringSeconds("Margin(189Dim)", full.curve),
       b::CurveScoringSeconds("Margin(Ensemble)", ensemble.curve)},
      5);

  // Blocking effectiveness: how much of the pool was skipped per iteration.
  size_t total_scored = 0, total_pruned = 0;
  for (const IterationStats& stats : blocked.curve) {
    total_scored += stats.scored_examples;
    total_pruned += stats.pruned_examples;
  }
  std::printf(
      "\nMargin(1Dim) blocking: %zu examples scored, %zu pruned "
      "(%.1f%% of candidates skipped without margin computation)\n",
      total_scored, total_pruned,
      100.0 * static_cast<double>(total_pruned) /
          static_cast<double>(total_scored + total_pruned));
  std::printf("Margin(Ensemble): %zu accepted SVMs at termination\n",
              ensemble.ensemble_accepted);
  return 0;
}
