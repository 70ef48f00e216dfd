// Regenerates Table 2: best progressive F1-scores (with #labels required to
// converge to them) for every approach x dataset cell, under perfect
// Oracles.
// Paper shape: Trees(20) tops every column at near-1.0 F1 but consumes the
// most labels; margin variants of linear classifiers match QBC variants
// with fewer labels; rules converge with the fewest labels and the lowest
// F1.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Table 2: Best Progressive F1-Scores (Perfect Oracle). "
      "Cell format: F1 (#labels to converge)",
      "Paper reference row Trees(20): 0.963 / 0.971 / 0.99 / 0.99 / 0.98");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const double scale = b::ScaleFromEnv();

  const std::vector<SynthProfile> profiles = {
      AbtBuyProfile(), AmazonGoogleProfile(), DblpAcmProfile(),
      DblpScholarProfile(), CoraProfile()};
  const std::vector<ApproachSpec> approaches = {
      TreesSpec(20),
      LinearMarginEnsembleSpec(),
      LinearMarginSpec(1),  // "Linear-Margin(Blocking)" row.
      LinearQbcSpec(2),
      LinearQbcSpec(20),
      NeuralMarginSpec(),
      NeuralQbcSpec(2),
      RulesLfpLfnSpec(),
  };

  // Prepare datasets once; they are shared across rows.
  std::vector<PreparedDataset> datasets;
  datasets.reserve(profiles.size());
  for (const SynthProfile& profile : profiles) {
    datasets.push_back(PrepareDataset({.profile = profile,
                                       .data_seed = 7,
                                       .scale = scale}));
  }

  std::printf("%-28s", "Approach");
  for (const SynthProfile& profile : profiles) {
    std::printf(" %20s", profile.name.substr(0, 20).c_str());
  }
  std::printf("\n");

  for (const ApproachSpec& spec : approaches) {
    std::printf("%-28s", spec.DisplayName().c_str());
    for (const PreparedDataset& data : datasets) {
      const RunResult result = b::Run(data, spec, max_labels);
      char cell[32];
      std::snprintf(cell, sizeof(cell), "%.3f (%zu)", result.best_f1,
                    result.labels_to_converge);
      std::printf(" %20s", cell);
    }
    std::printf("\n");
  }
  return 0;
}
