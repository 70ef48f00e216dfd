// Regenerates Fig. 18 and the Section 6.3 rule listing: interpretability of
// trees vs rules on Abt-Buy.
//   (a) #DNF atoms vs #labels for Trees(2/10/20) and Rules(LFP/LFN)
//   (b) maximum tree depth vs #labels
// plus the final DNF rule ensemble learned by LFP/LFN, pretty-printed the
// way the paper lists its Abt-Buy rules.
// Paper shape: tree atom counts grow into the thousands while rules stay at
// a handful of atoms; depth grows with labels and forest size.

#include <cstdio>

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
      "Fig. 18: Interpretability — #DNF Atoms and Tree Depth vs #Labels "
      "(Abt-Buy)",
      "atoms counted with repetition over root-to-positive-leaf paths");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const PreparedDataset data =
      PrepareDataset({.profile = AbtBuyProfile(),
                      .data_seed = 7,
                      .scale = b::ScaleFromEnv()});

  const RunResult t2 = b::Run(data, TreesSpec(2), max_labels);
  const RunResult t10 = b::Run(data, TreesSpec(10), max_labels);
  const RunResult t20 = b::Run(data, TreesSpec(20), max_labels);
  const RunResult rules = b::Run(data, RulesLfpLfnSpec(), max_labels);

  b::PrintSeriesTable("(a) #DNF Atoms vs #Labels",
                      {b::CurveDnfAtoms("Trees(2)", t2.curve),
                       b::CurveDnfAtoms("Trees(10)", t10.curve),
                       b::CurveDnfAtoms("Trees(20)", t20.curve),
                       b::CurveDnfAtoms("Rules", rules.curve)},
                      0);
  b::PrintSeriesTable("(b) Depth of Tree-based Classifiers",
                      {b::CurveTreeDepth("Trees(2)", t2.curve),
                       b::CurveTreeDepth("Trees(10)", t10.curve),
                       b::CurveTreeDepth("Trees(20)", t20.curve)},
                      0);

  // Re-run the rule learner to hold on to the final model, then print the
  // learned DNF ensemble like the paper's Abt-Buy listing.
  {
    ActivePool pool(data.boolean_features);
    PerfectOracle oracle(data.truth);
    ProgressiveEvaluator evaluator(data.truth);
    RuleLearner learner;
    LfpLfnSelector selector;
    ActiveLearningConfig config;
    config.max_labels = max_labels;
    ActiveLearningLoop loop(learner, selector, oracle, evaluator, config);
    loop.Run(pool);
    std::printf("\nLearned rule ensemble (Abt-Buy, #DNF atoms = %zu):\n  %s\n",
                learner.dnf().NumAtoms(),
                learner.dnf().ToString(*data.featurizer).c_str());
  }
  return 0;
}
