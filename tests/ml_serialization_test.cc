#include <gtest/gtest.h>

#include "ml/metrics.h"
#include "ml/serialization.h"
#include "util/rng.h"

namespace alem {
namespace {

void MakeXor(size_t n, uint64_t seed, FeatureMatrix* features,
             std::vector<int>* labels) {
  Rng rng(seed);
  *features = FeatureMatrix(n, 2);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool a = rng.NextBernoulli(0.5);
    const bool b = rng.NextBernoulli(0.5);
    features->Set(i, 0,
                  static_cast<float>((a ? 0.8 : 0.2) + rng.NextGaussian() * 0.05));
    features->Set(i, 1,
                  static_cast<float>((b ? 0.8 : 0.2) + rng.NextGaussian() * 0.05));
    (*labels)[i] = (a != b) ? 1 : 0;
  }
}

TEST(SerializationTest, SvmRoundTripPreservesPredictions) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeXor(200, 1, &features, &labels);
  LinearSvm original(LinearSvmConfig{});
  original.Fit(features, labels);

  LinearSvm restored;
  ASSERT_TRUE(DeserializeSvm(SerializeSvm(original), &restored));
  ASSERT_TRUE(restored.trained());
  EXPECT_EQ(restored.weights(), original.weights());
  EXPECT_DOUBLE_EQ(restored.bias(), original.bias());
  for (size_t i = 0; i < features.rows(); ++i) {
    EXPECT_DOUBLE_EQ(restored.Margin(features.Row(i)),
                     original.Margin(features.Row(i)));
  }
}

TEST(SerializationTest, TreeRoundTripPreservesPredictions) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeXor(300, 2, &features, &labels);
  DecisionTreeConfig config;
  config.max_features = -1;
  DecisionTree original(config);
  original.Fit(features, labels);

  DecisionTree restored;
  ASSERT_TRUE(DeserializeTree(SerializeTree(original), &restored));
  EXPECT_EQ(restored.depth(), original.depth());
  EXPECT_EQ(restored.num_nodes(), original.num_nodes());
  for (size_t i = 0; i < features.rows(); ++i) {
    EXPECT_EQ(restored.Predict(features.Row(i)),
              original.Predict(features.Row(i)));
  }
}

TEST(SerializationTest, ForestRoundTripPreservesVotes) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeXor(250, 3, &features, &labels);
  RandomForestConfig config;
  config.num_trees = 7;
  RandomForest original(config);
  original.Fit(features, labels);

  RandomForest restored;
  ASSERT_TRUE(DeserializeForest(SerializeForest(original), &restored));
  EXPECT_EQ(restored.trees().size(), original.trees().size());
  for (size_t i = 0; i < features.rows(); ++i) {
    EXPECT_DOUBLE_EQ(restored.PositiveFraction(features.Row(i)),
                     original.PositiveFraction(features.Row(i)));
  }
}

TEST(SerializationTest, NeuralNetRoundTripPreservesMargins) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeXor(200, 4, &features, &labels);
  NeuralNetConfig config;
  config.hidden_sizes = {16, 8};
  NeuralNetwork original(config);
  original.Fit(features, labels);

  NeuralNetwork restored;
  ASSERT_TRUE(DeserializeNeuralNet(SerializeNeuralNet(original), &restored));
  for (size_t i = 0; i < features.rows(); ++i) {
    EXPECT_DOUBLE_EQ(restored.Margin(features.Row(i)),
                     original.Margin(features.Row(i)));
  }
}

TEST(SerializationTest, DnfRoundTrip) {
  Dnf original;
  original.conjunctions.push_back(Conjunction{{0, 3, 7}});
  original.conjunctions.push_back(Conjunction{{2}});
  Dnf restored;
  ASSERT_TRUE(DeserializeDnf(SerializeDnf(original), &restored));
  ASSERT_EQ(restored.conjunctions.size(), 2u);
  EXPECT_EQ(restored.conjunctions[0].atoms, original.conjunctions[0].atoms);
  EXPECT_EQ(restored.conjunctions[1].atoms, original.conjunctions[1].atoms);
}

TEST(SerializationTest, EmptyDnfRoundTrip) {
  Dnf original;
  Dnf restored;
  ASSERT_TRUE(DeserializeDnf(SerializeDnf(original), &restored));
  EXPECT_TRUE(restored.conjunctions.empty());
}

TEST(SerializationTest, RejectsWrongTag) {
  LinearSvm svm;
  EXPECT_FALSE(DeserializeSvm("alem-tree\n1\n", &svm));
  DecisionTree tree;
  EXPECT_FALSE(DeserializeTree("alem-svm\n1\n", &tree));
  Dnf dnf;
  EXPECT_FALSE(DeserializeDnf("", &dnf));
}

TEST(SerializationTest, RejectsTruncatedBlob) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeXor(100, 5, &features, &labels);
  LinearSvm original(LinearSvmConfig{});
  original.Fit(features, labels);
  const std::string blob = SerializeSvm(original);
  LinearSvm restored;
  EXPECT_FALSE(DeserializeSvm(blob.substr(0, blob.size() / 2), &restored));
}

TEST(SerializationTest, RejectsCorruptNodeIndices) {
  // A three-node tree: header (version, max_depth, min_samples_split,
  // max_features, seed, root, depth, node count), then one
  // "is_leaf label dim threshold left right" line per node, post-order.
  auto blob = [](const std::string& root_line) {
    return "alem-tree\n1\n0 2 0 1\n2\n1\n3\n1 0 0 0 -1 -1\n1 1 0 0 -1 -1\n" +
           root_line + "\n";
  };
  DecisionTree restored;
  ASSERT_TRUE(DeserializeTree(blob("0 0 0 0.5 0 1"), &restored));
  const float x[] = {0.9f};
  EXPECT_EQ(restored.Predict(x), 1);

  // Absurd node count.
  EXPECT_FALSE(DeserializeTree("alem-tree\n1\n0 2 0 1\n0\n0\n999999999\n",
                               &restored));
  // Negative child on a split node (Predict would read out of bounds).
  EXPECT_FALSE(DeserializeTree(blob("0 0 0 0.5 -5 1"), &restored));
  // Split whose children point at itself (Predict would never return).
  EXPECT_FALSE(DeserializeTree(blob("0 0 0 0.5 2 2"), &restored));
}

TEST(SerializationTest, RejectsInconsistentNeuralNetShapes) {
  // One hidden layer (2 -> 2): header, config, layer count, then in, out,
  // weights, bias, gamma, beta, running mean, running var, and the output
  // weights and bias. Every vector line is "count values...".
  auto blob = [](const std::string& bias, const std::string& out_weights) {
    return "alem-nn\n1\n1 2\n10\n8\n0.01\n0\n0.9\n0\n1\n10\n1\n1\n2\n2\n"
           "4 1 0 0 1\n" +
           bias + "\n2 1 1\n2 0 0\n2 0 0\n2 1 1\n" + out_weights + "\n0\n";
  };
  NeuralNetwork restored;
  ASSERT_TRUE(DeserializeNeuralNet(blob("2 0 0", "2 1 1"), &restored));
  const float x[] = {0.5f, 0.5f};
  EXPECT_GT(restored.Margin(x), 0.0);

  // Per-unit vectors and the output weights must match the layer width,
  // or Margin reads past them.
  EXPECT_FALSE(DeserializeNeuralNet(blob("1 0", "2 1 1"), &restored));
  EXPECT_FALSE(DeserializeNeuralNet(blob("2 0 0", "1 1"), &restored));
}

TEST(SerializationTest, FileRoundTrip) {
  FeatureMatrix features;
  std::vector<int> labels;
  MakeXor(150, 7, &features, &labels);
  RandomForestConfig config;
  config.num_trees = 3;
  RandomForest original(config);
  original.Fit(features, labels);

  const std::string path = ::testing::TempDir() + "/alem_model.txt";
  ASSERT_TRUE(SaveToFile(path, SerializeForest(original)));
  std::string blob;
  ASSERT_TRUE(LoadFromFile(path, &blob));
  RandomForest restored;
  ASSERT_TRUE(DeserializeForest(blob, &restored));
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(restored.Predict(features.Row(i)),
              original.Predict(features.Row(i)));
  }
}

}  // namespace
}  // namespace alem
