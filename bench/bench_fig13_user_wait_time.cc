// Regenerates Fig. 13: user wait time (training + example selection) per
// iteration for the best variant of each classifier family, on the five
// perfect-oracle datasets.
// Paper shape: rules and NN wait longest (rule execution / long training),
// forests shortest despite training 20 trees (learner-aware committees);
// SVM ensembles start cheap and grow with the labeled set.

#include "bench/bench_util.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Fig. 13: Comparison of Classifiers with Best Selection Strategies "
      "(User Wait Time, seconds per iteration)",
      "wait = train + committee creation + example scoring");
  const size_t max_labels = b::MaxLabelsFromEnv(300);
  const double scale = b::ScaleFromEnv();

  struct Panel {
    SynthProfile profile;
    bool nn_uses_qbc;
    bool linear_uses_ensemble;
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

    const std::vector<b::Series> waits = {
        b::CurveWaitSeconds(nn_run.approach_name, nn_run.curve),
        b::CurveWaitSeconds(linear_run.approach_name, linear_run.curve),
        b::CurveWaitSeconds("Trees(20)", trees_run.curve),
        b::CurveWaitSeconds("Rules", rules_run.curve)};
    b::PrintSeriesTable(panel.profile.name + " (seconds)", waits, 5);
    // Tail view: the paper plots per-iteration waits, but a deployment
    // cares about the worst iterations a labeler sits through.
    b::PrintSeriesPercentiles(
        panel.profile.name + " wait percentiles (seconds)", waits, 5);
  }
  return 0;
}
