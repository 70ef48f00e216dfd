// Regenerates Fig. 17: active vs supervised tree ensembles on Abt-Buy with
// 80/20 splits, under 0%, 10% and 20% Oracle noise.
// Paper shape: active trees reach supervised-on-everything quality within
// the first few iterations; the advantage shrinks to insignificance at 20%
// noise.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Fig. 17: Active vs. Supervised Trees(20) (Abt-Buy, 20% Test Labels)",
      "test F1 on the held-out split at 0/10/20% Oracle noise");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const size_t runs = b::RunsFromEnv(3);
  const PreparedDataset data =
      PrepareDataset({.profile = AbtBuyProfile(),
                      .data_seed = 7,
                      .scale = b::ScaleFromEnv()});

  for (const double noise : {0.0, 0.1, 0.2}) {
    std::vector<std::vector<IterationStats>> active_curves;
    std::vector<std::vector<IterationStats>> supervised_curves;
    for (size_t run = 0; run < runs; ++run) {
      active_curves.push_back(b::Run(data, TreesSpec(20), max_labels, noise,
                                     /*holdout=*/true, 300 + run)
                                  .curve);
      supervised_curves.push_back(
          b::Run(data, SupervisedTreesSpec(20), max_labels, noise,
                 /*holdout=*/true, 300 + run)
              .curve);
    }
    auto to_series = [](const std::string& name,
                        const std::vector<std::vector<IterationStats>>& cs) {
      b::Series s;
      s.name = name;
      for (const AveragedPoint& point : AverageCurves(cs)) {
        s.points.emplace_back(point.labels, point.mean_f1);
      }
      return s;
    };
    char title[64];
    std::snprintf(title, sizeof(title), "%d%% Noisy Oracle",
                  static_cast<int>(noise * 100));
    b::PrintSeriesTable(title,
                        {to_series("ActiveTrees", active_curves),
                         to_series("SupTrees", supervised_curves)});
  }
  return 0;
}
