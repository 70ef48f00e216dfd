// Ablation (DESIGN.md §5.3): the active-ensemble precision gate tau.
// The paper fixes tau = 0.85 for all datasets and observes that this suits
// some datasets better than others (Section 6.1). This ablation sweeps tau:
// a loose gate accepts imprecise members (recall up, precision down); a
// strict gate accepts few or none (the run degenerates to plain margin).

#include <cstdio>

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Ablation: active-ensemble precision threshold tau "
      "(Linear-Margin(Ensemble))",
      "swept on Abt-Buy and DBLP-ACM; paper default tau = 0.85");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const double scale = b::ScaleFromEnv();

  for (const SynthProfile& profile : {AbtBuyProfile(), DblpAcmProfile()}) {
    const PreparedDataset data = PrepareDataset({.profile = profile,
                                                 .data_seed = 7,
                                                 .scale = scale});
    std::printf("\n%s:\n", profile.name.c_str());
    std::printf("%8s %8s %12s %14s\n", "tau", "bestF1", "#accepted",
                "labels@conv");
    for (const double tau : {0.5, 0.7, 0.85, 0.95}) {
      const RunResult result =
          b::Run(data, LinearMarginEnsembleSpec(tau), max_labels);
      std::printf("%8.2f %8.3f %12zu %14zu\n", tau, result.best_f1,
                  result.ensemble_accepted, result.labels_to_converge);
    }
  }
  return 0;
}
