// Regenerates Fig. 12: best example selector per classifier family compared
// across the five perfect-oracle datasets (progressive F1).
// Paper shape: Trees(20) dominates everywhere; rules terminate earliest and
// score lowest; linear/NN land in between.

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Fig. 12: Comparison of Classifiers with Best Selection Strategies "
      "(Progressive F1, Perfect Oracle)",
      "NN-Margin (NN-QBC(2) on Cora), Linear-Margin(Ensemble or 1Dim), "
      "Trees(20), Rules(LFP/LFN)");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const double scale = b::ScaleFromEnv();

  struct Panel {
    SynthProfile profile;
    bool nn_uses_qbc;        // Cora: NN-QBC(2) is the best NN variant.
    bool linear_uses_ensemble;  // Else Margin(1Dim), per the paper's picks.
  };
  const Panel panels[] = {
      {AbtBuyProfile(), false, true},
      {AmazonGoogleProfile(), false, false},
      {DblpAcmProfile(), false, true},
      {DblpScholarProfile(), false, false},
      {CoraProfile(), true, true},
  };

  for (const Panel& panel : panels) {
    const PreparedDataset data = PrepareDataset({.profile = panel.profile,
                                                 .data_seed = 7,
                                                 .scale = scale});
    const ApproachSpec nn =
        panel.nn_uses_qbc ? NeuralQbcSpec(2) : NeuralMarginSpec();
    const ApproachSpec linear = panel.linear_uses_ensemble
                                    ? LinearMarginEnsembleSpec()
                                    : LinearMarginSpec(1);
    const RunResult nn_run = b::Run(data, nn, max_labels);
    const RunResult linear_run = b::Run(data, linear, max_labels);
    const RunResult trees_run = b::Run(data, TreesSpec(20), max_labels);
    const RunResult rules_run = b::Run(data, RulesLfpLfnSpec(), max_labels);

    b::PrintSeriesTable(
        panel.profile.name,
        {b::CurveF1(nn_run.approach_name, nn_run.curve),
         b::CurveF1(linear_run.approach_name, linear_run.curve),
         b::CurveF1("Trees(20)", trees_run.curve),
         b::CurveF1("Rules", rules_run.curve)});
  }
  return 0;
}
