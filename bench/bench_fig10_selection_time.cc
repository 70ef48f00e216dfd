// Regenerates Fig. 10a-c: example-selection latency on Cora, split into
// committee-creation time (QBC only) and example-scoring time, per
// classifier family. The paper's shape: committee creation grows with
// #labels and dominates QBC; scoring shrinks as the unlabeled pool drains;
// margin has no committee cost; forests get their committee for free.

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Fig. 10a-c: Example Selection Times of Strategies per Classifier "
      "(Cora)",
      "create* = committee creation seconds, score* = example scoring "
      "seconds");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const PreparedDataset data =
      PrepareDataset({.profile = CoraProfile(),
                      .data_seed = 7,
                      .scale = b::ScaleFromEnv()});

  // (a) Non-convex non-linear.
  {
    const RunResult qbc = b::Run(data, NeuralQbcSpec(2), max_labels);
    const RunResult margin = b::Run(data, NeuralMarginSpec(), max_labels);
    b::PrintSeriesTable(
        "(a) Non-Convex Non-Linear (seconds)",
        {b::CurveCommitteeSeconds("createQBC(2)", qbc.curve),
         b::CurveScoringSeconds("scoreQBC(2)", qbc.curve),
         b::CurveScoringSeconds("scoreMargin", margin.curve)},
        5);
  }
  // (b) Linear.
  {
    const RunResult qbc2 = b::Run(data, LinearQbcSpec(2), max_labels);
    const RunResult qbc20 = b::Run(data, LinearQbcSpec(20), max_labels);
    const RunResult margin = b::Run(data, LinearMarginSpec(0), max_labels);
    b::PrintSeriesTable(
        "(b) Linear Classifier (seconds)",
        {b::CurveCommitteeSeconds("createQBC(2)", qbc2.curve),
         b::CurveCommitteeSeconds("createQBC(20)", qbc20.curve),
         b::CurveScoringSeconds("scoreQBC(2)", qbc2.curve),
         b::CurveScoringSeconds("scoreQBC(20)", qbc20.curve),
         b::CurveScoringSeconds("scoreMargin", margin.curve)},
        5);
  }
  // (c) Tree-based: scoring only (the committee is trained with the model).
  {
    const RunResult t2 = b::Run(data, TreesSpec(2), max_labels);
    const RunResult t10 = b::Run(data, TreesSpec(10), max_labels);
    const RunResult t20 = b::Run(data, TreesSpec(20), max_labels);
    b::PrintSeriesTable(
        "(c) Tree-based Classifier (seconds)",
        {b::CurveScoringSeconds("scoreTrees(2)", t2.curve),
         b::CurveScoringSeconds("scoreTrees(10)", t10.curve),
         b::CurveScoringSeconds("scoreTrees(20)", t20.curve)},
        5);
  }
  return 0;
}
