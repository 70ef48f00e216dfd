// Regenerates Fig. 16: active tree ensembles vs supervised tree ensembles
// vs DeepMatcher on the Magellan datasets, using conventional 80/20
// train/test splits and perfect Oracles.
// Paper shape: ActiveTrees(QBC-20) reaches its best test F1 with far fewer
// labels than SupervisedTrees(Random-20); DeepMatcher needs most of the 80%
// training pool and shows higher run-to-run variance. DeepMatcher here is a
// deeper supervised NN proxy (see DESIGN.md substitutions).

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "synth/profiles.h"
#include "util/stats.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Fig. 16: Active vs. Supervised Learning on Magellan/DeepMatcher "
      "Datasets (Perfect Oracles, 20% Test Labels)",
      "ActiveTrees(QBC-20) vs SupervisedTrees(Random-20) vs DeepMatcher "
      "proxy; test F1 on the held-out 20%");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const size_t deepmatcher_runs = b::RunsFromEnv(3);
  const double scale = b::ScaleFromEnv();

  const SynthProfile profiles[] = {WalmartAmazonProfile(),
                                   AmazonBestBuyProfile(), BeerProfile(),
                                   BabyProductsProfile()};
  for (const SynthProfile& profile : profiles) {
    const PreparedDataset data = PrepareDataset({.profile = profile,
                                                 .data_seed = 7,
                                                 .scale = scale});
    const size_t test_labels = data.pairs.size() / 5;

    const RunResult active =
        b::Run(data, TreesSpec(20), max_labels, 0.0, /*holdout=*/true);
    const RunResult supervised = b::Run(data, SupervisedTreesSpec(20),
                                        max_labels, 0.0, /*holdout=*/true);

    // DeepMatcher: averaged over runs (the paper reports its mean because of
    // its run-to-run variance) and its final-F1 standard deviation.
    std::vector<std::vector<IterationStats>> dm_curves;
    RunningStats dm_final;
    for (size_t run = 0; run < deepmatcher_runs; ++run) {
      const RunResult dm = b::Run(data, DeepMatcherSpec(), max_labels, 0.0,
                                  /*holdout=*/true, 200 + run);
      dm_final.Add(dm.curve.empty() ? 0.0 : dm.curve.back().metrics.f1);
      dm_curves.push_back(dm.curve);
    }
    b::Series dm_series;
    dm_series.name = "DeepMatcher";
    for (const AveragedPoint& point : AverageCurves(dm_curves)) {
      dm_series.points.emplace_back(point.labels, point.mean_f1);
    }

    char title[128];
    std::snprintf(title, sizeof(title), "%s (%zu test labels)",
                  profile.name.c_str(), test_labels);
    b::PrintSeriesTable(
        title, {b::CurveF1("ActiveTrees", active.curve),
                b::CurveF1("SupTrees", supervised.curve), dm_series});
    std::printf("DeepMatcher final-F1 stddev across %zu runs: %.3f\n",
                deepmatcher_runs, dm_final.stddev());
  }
  return 0;
}
