// Train once, match forever: persisting learned EM models.
//
// Active learning buys a good model with few labels, but the payoff comes
// from *reusing* that model on future record batches without re-labeling.
// This example trains a random forest with active learning, serializes it,
// restores it in a "fresh process" (a new object), and applies it to pairs
// the original training run never saw.

#include <cstdio>
#include <string>

#include "core/harness.h"
#include "ml/serialization.h"
#include "synth/profiles.h"

int main() {
  using namespace alem;

  // Train on one snapshot of the catalogs...
  const PreparedDataset training_data =
      PrepareDataset({.profile = AbtBuyProfile(), .data_seed = 42});
  RunConfig config;
  config.approach = TreesSpec(10);
  config.max_labels = 250;
  const RunResult result = RunActiveLearning(training_data, config);
  std::printf("trained %s: best F1 %.3f with %zu labels\n",
              result.approach_name.c_str(), result.best_f1,
              result.labels_to_converge);

  // ... serialize the model ...
  const auto* forest =
      dynamic_cast<const ForestLearner*>(result.final_model.get());
  if (forest == nullptr) {
    std::fprintf(stderr, "unexpected model type\n");
    return 1;
  }
  const std::string path = "/tmp/alem_abtbuy_forest.txt";
  if (!SaveToFile(path, SerializeForest(forest->model()))) {
    std::fprintf(stderr, "failed to save model\n");
    return 1;
  }
  std::printf("model saved to %s\n", path.c_str());

  // ... and, later, restore it and match a *new* batch of records (same
  // catalogs, different snapshot seed => records never seen in training).
  std::string blob;
  RandomForest restored;
  if (!LoadFromFile(path, &blob) || !DeserializeForest(blob, &restored)) {
    std::fprintf(stderr, "failed to load model\n");
    return 1;
  }
  const PreparedDataset new_batch =
      PrepareDataset({.profile = AbtBuyProfile(), .data_seed = 4242});
  const std::vector<int> predictions =
      restored.PredictAll(new_batch.float_features);
  const BinaryMetrics metrics =
      ComputeBinaryMetrics(predictions, new_batch.truth);
  std::printf(
      "restored model on an unseen batch (%zu pairs): precision %.3f, "
      "recall %.3f, F1 %.3f — no additional labels spent\n",
      new_batch.pairs.size(), metrics.precision, metrics.recall, metrics.f1);
  return 0;
}
