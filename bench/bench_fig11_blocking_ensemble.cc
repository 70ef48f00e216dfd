// Regenerates Fig. 11: effect of blocking and active ensembles on linear
// classifiers — progressive F1 on the five perfect-oracle datasets.
// Paper shape: Margin(1Dim) tracks the all-dims baseline everywhere except
// Cora; the ensemble gives a small boost on some datasets (Abt-Buy,
// DBLP-ACM) and no gain (or a small loss) on others — the fixed tau = 0.85
// precision gate is not equally suited to every dataset.

#include <cstdio>

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Fig. 11: Effect of Blocking and Active Ensemble on Linear "
      "Classifiers (Progressive F1, Perfect Oracle)",
      "Margin(1Dim) = selection-time blocking; Ensemble = tau 0.85 gate");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const double scale = b::ScaleFromEnv();

  const SynthProfile profiles[] = {AbtBuyProfile(), AmazonGoogleProfile(),
                                   DblpAcmProfile(), DblpScholarProfile(),
                                   CoraProfile()};
  for (const SynthProfile& profile : profiles) {
    const PreparedDataset data = PrepareDataset({.profile = profile,
                                                 .data_seed = 7,
                                                 .scale = scale});
    const std::string all_dims =
        "Margin(" + std::to_string(data.float_features.dims()) + "Dim)";

    const RunResult blocked = b::Run(data, LinearMarginSpec(1), max_labels);
    const RunResult full = b::Run(data, LinearMarginSpec(0), max_labels);
    const RunResult ensemble =
        b::Run(data, LinearMarginEnsembleSpec(), max_labels);

    b::PrintSeriesTable(profile.name,
                        {b::CurveF1("Margin(1Dim)", blocked.curve),
                         b::CurveF1(all_dims, full.curve),
                         b::CurveF1("Margin(Ens)", ensemble.curve)});
    std::printf("#AcceptedSVMs = %zu\n", ensemble.ensemble_accepted);
  }
  return 0;
}
