// Regenerates Fig. 14: active learning under a probabilistically noisy
// Oracle on Abt-Buy, for four classifier variants x noise in {0..40%}.
// F1 values are averaged over ALEM_RUNS runs with distinct seeds, as in the
// paper. Paper shape: trees degrade gracefully and keep an edge up to ~20%
// noise; NNs resist noise thanks to regularization; SVMs drop sharply past
// 10%.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Fig. 14: Active Learning using a Probabilistically Noisy Oracle "
      "(Abt-Buy, Progressive F1)",
      "mean F1 over repeated runs; noise = label flip probability");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const size_t runs = b::RunsFromEnv(3);
  const PreparedDataset data =
      PrepareDataset({.profile = AbtBuyProfile(),
                      .data_seed = 7,
                      .scale = b::ScaleFromEnv()});

  struct Panel {
    std::string title;
    ApproachSpec spec;
  };
  const std::vector<Panel> panels = {
      {"(a) Trees(20)", TreesSpec(20)},
      {"(b) Non-Convex Non-Linear (Margin)", NeuralMarginSpec()},
      {"(c) Linear-Margin(Ensemble)", LinearMarginEnsembleSpec()},
      {"(d) Linear-Margin(1Dim)", LinearMarginSpec(1)},
  };
  const double noises[] = {0.0, 0.1, 0.2, 0.3, 0.4};

  for (const Panel& panel : panels) {
    std::vector<b::Series> series;
    for (const double noise : noises) {
      std::vector<std::vector<IterationStats>> curves;
      for (size_t run = 0; run < runs; ++run) {
        curves.push_back(
            b::Run(data, panel.spec, max_labels, noise, false, 100 + run)
                .curve);
      }
      const std::vector<AveragedPoint> averaged = AverageCurves(curves);
      b::Series s;
      s.name = std::to_string(static_cast<int>(noise * 100)) + "%";
      for (const AveragedPoint& point : averaged) {
        s.points.emplace_back(point.labels, point.mean_f1);
      }
      series.push_back(std::move(s));
    }
    b::PrintSeriesTable(panel.title, series);
  }
  return 0;
}
