// Regenerates Fig. 15: Trees(20) on the Magellan/DeepMatcher datasets under
// noisy Oracles (progressive F1, noise 0..40%).
// Paper shape: with a perfect Oracle the small datasets (Amazon-BestBuy,
// Beer) converge near 1.0 within ~100 labels, while Walmart-Amazon and
// BabyProducts need substantially more labels; under noise the curves
// degrade with noise level.

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Fig. 15: Tree Ensembles on Magellan/DeepMatcher Datasets "
      "(Noisy Oracles, Progressive F1)",
      "Trees(20), mean F1 over repeated runs");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const size_t runs = b::RunsFromEnv(3);
  const double scale = b::ScaleFromEnv();
  const double noises[] = {0.0, 0.1, 0.2, 0.3, 0.4};

  const SynthProfile profiles[] = {WalmartAmazonProfile(),
                                   AmazonBestBuyProfile(), BeerProfile(),
                                   BabyProductsProfile()};
  for (const SynthProfile& profile : profiles) {
    const PreparedDataset data = PrepareDataset({.profile = profile,
                                                 .data_seed = 7,
                                                 .scale = scale});
    std::vector<b::Series> series;
    for (const double noise : noises) {
      std::vector<std::vector<IterationStats>> curves;
      for (size_t run = 0; run < runs; ++run) {
        curves.push_back(
            b::Run(data, TreesSpec(20), max_labels, noise, false, 100 + run)
                .curve);
      }
      b::Series s;
      s.name = std::to_string(static_cast<int>(noise * 100)) + "%";
      for (const AveragedPoint& point : AverageCurves(curves)) {
        s.points.emplace_back(point.labels, point.mean_f1);
      }
      series.push_back(std::move(s));
    }
    b::PrintSeriesTable(profile.name + ", Trees(20)", series);
  }
  return 0;
}
