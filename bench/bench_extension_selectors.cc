// Extension selectors vs the paper's core strategies.
//
// Compares IWAL (Section 2 related work; exploration-heavy sampling) and
// density-weighted margin selection (Settles' information density) against
// plain margin and QBC on a linear SVM. The paper's expectation: IWAL burns
// more labels for the same F1; density weighting helps when ambiguous
// outliers exist.

#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "core/active_loop.h"
#include "core/evaluator.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Extension: IWAL and density-weighted selection vs margin/QBC "
      "(Linear SVM, Abt-Buy)",
      "IWAL samples by disagreement probability; Density = margin x pool "
      "similarity");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const PreparedDataset data =
      PrepareDataset({.profile = AbtBuyProfile(),
                      .data_seed = 7,
                      .scale = b::ScaleFromEnv()});

  auto run = [&](std::unique_ptr<ExampleSelector> selector) {
    ActivePool pool(data.float_features);
    PerfectOracle oracle(data.truth);
    ProgressiveEvaluator evaluator(data.truth);
    SvmLearner learner{LinearSvmConfig{}};
    ActiveLearningConfig config;
    config.max_labels = max_labels;
    ActiveLearningLoop loop(learner, *selector, oracle, evaluator, config);
    return loop.Run(pool);
  };

  const auto margin = run(std::make_unique<MarginSelector>());
  const auto qbc = run(std::make_unique<QbcSelector>(5, 3));
  const auto iwal = run(std::make_unique<IwalSelector>(5, 0.1, 3));
  const auto density = run(std::make_unique<DensityWeightedSelector>(1.0, 3));

  b::PrintSeriesTable("Progressive F1",
                      {b::CurveF1("Margin", margin),
                       b::CurveF1("QBC(5)", qbc),
                       b::CurveF1("IWAL(5)", iwal),
                       b::CurveF1("Density", density)});
  return 0;
}
