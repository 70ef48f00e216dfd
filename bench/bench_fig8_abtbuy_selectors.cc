// Regenerates Fig. 8: QBC vs. Margin progressive F1 on Abt-Buy, one panel
// per classifier family:
//   (a) non-convex non-linear (neural network): QBC(2) vs Margin
//   (b) linear (SVM): QBC(2), QBC(20), Margin (all dims)
//   (c) tree-based: Trees(2), Trees(10), Trees(20) with learner-aware QBC.

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader("Fig. 8: QBC vs. Margin (Progressive F1, Abt-Buy)",
                 "Paper shape: margin ~= QBC per learner; Trees(20) -> ~1.0");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const PreparedDataset data =
      PrepareDataset({.profile = AbtBuyProfile(),
                      .data_seed = 7,
                      .scale = b::ScaleFromEnv()});

  // (a) Non-convex non-linear.
  {
    const RunResult qbc = b::Run(data, NeuralQbcSpec(2), max_labels);
    const RunResult margin = b::Run(data, NeuralMarginSpec(), max_labels);
    b::PrintSeriesTable("(a) Non-Convex Non-Linear",
                        {b::CurveF1("QBC(2)", qbc.curve),
                         b::CurveF1("Margin", margin.curve)});
  }
  // (b) Linear.
  {
    const RunResult qbc2 = b::Run(data, LinearQbcSpec(2), max_labels);
    const RunResult qbc20 = b::Run(data, LinearQbcSpec(20), max_labels);
    const RunResult margin = b::Run(data, LinearMarginSpec(0), max_labels);
    b::PrintSeriesTable("(b) Linear Classifier",
                        {b::CurveF1("QBC(2)", qbc2.curve),
                         b::CurveF1("QBC(20)", qbc20.curve),
                         b::CurveF1("Margin(63Dim)", margin.curve)});
  }
  // (c) Tree-based (the forest is the committee).
  {
    const RunResult t2 = b::Run(data, TreesSpec(2), max_labels);
    const RunResult t10 = b::Run(data, TreesSpec(10), max_labels);
    const RunResult t20 = b::Run(data, TreesSpec(20), max_labels);
    b::PrintSeriesTable("(c) Tree-based Classifier",
                        {b::CurveF1("Trees(2)", t2.curve),
                         b::CurveF1("Trees(10)", t10.curve),
                         b::CurveF1("Trees(20)", t20.curve)});
  }
  return 0;
}
