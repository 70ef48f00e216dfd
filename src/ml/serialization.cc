#include "ml/serialization.h"

#include <fstream>
#include <sstream>

#include "util/check.h"

namespace alem {
namespace {

// Writers use max_digits10 so doubles round-trip exactly.
class Writer {
 public:
  Writer() { out_.precision(17); }

  template <typename T>
  Writer& Line(const T& value) {
    out_ << value << '\n';
    return *this;
  }

  template <typename T>
  Writer& Vector(const std::vector<T>& values) {
    out_ << values.size();
    for (const T& value : values) out_ << ' ' << value;
    out_ << '\n';
    return *this;
  }

  std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

class Reader {
 public:
  explicit Reader(const std::string& text) : in_(text) {}

  bool ExpectTag(const std::string& tag) {
    std::string line;
    return static_cast<bool>(std::getline(in_, line)) && line == tag;
  }

  template <typename T>
  bool Read(T* value) {
    return static_cast<bool>(in_ >> *value);
  }

  template <typename T>
  bool ReadVector(std::vector<T>* values) {
    size_t count = 0;
    if (!Read(&count)) return false;
    // Guards against absurd counts from corrupt input.
    if (count > (1u << 26)) return false;
    values->resize(count);
    for (T& value : *values) {
      if (!Read(&value)) return false;
    }
    return true;
  }

 private:
  std::istringstream in_;
};

}  // namespace

// ---- LinearSvm ----

std::string SerializeSvm(const LinearSvm& model) {
  ALEM_CHECK(model.trained());
  Writer writer;
  writer.Line("alem-svm").Line(1);
  writer.Line(model.config_.lambda)
      .Line(model.config_.t0)
      .Line(model.config_.epochs)
      .Line(model.config_.balance_classes ? 1 : 0)
      .Line(model.config_.seed);
  writer.Vector(model.weights_);
  writer.Line(model.bias_);
  return writer.str();
}

bool DeserializeSvm(const std::string& text, LinearSvm* model) {
  Reader reader(text);
  int version = 0;
  if (!reader.ExpectTag("alem-svm") || !reader.Read(&version) ||
      version != 1) {
    return false;
  }
  LinearSvm result;
  int balance = 0;
  if (!reader.Read(&result.config_.lambda) ||
      !reader.Read(&result.config_.t0) ||
      !reader.Read(&result.config_.epochs) || !reader.Read(&balance) ||
      !reader.Read(&result.config_.seed) ||
      !reader.ReadVector(&result.weights_) || !reader.Read(&result.bias_)) {
    return false;
  }
  if (result.weights_.empty()) return false;
  result.config_.balance_classes = balance != 0;
  *model = std::move(result);
  return true;
}

// ---- DecisionTree ----

std::string SerializeTree(const DecisionTree& model) {
  ALEM_CHECK(model.trained());
  Writer writer;
  writer.Line("alem-tree").Line(1);
  writer.Line(model.config_.max_depth)
      .Line(model.config_.min_samples_split)
      .Line(model.config_.max_features)
      .Line(model.config_.seed);
  writer.Line(model.root_).Line(model.depth_).Line(model.nodes_.size());
  for (const auto& node : model.nodes_) {
    std::ostringstream row;
    row.precision(9);
    row << (node.is_leaf ? 1 : 0) << ' ' << node.label << ' ' << node.dim
        << ' ' << node.threshold << ' ' << node.left << ' ' << node.right;
    writer.Line(row.str());
  }
  return writer.str();
}

bool DeserializeTree(const std::string& text, DecisionTree* model) {
  Reader reader(text);
  int version = 0;
  if (!reader.ExpectTag("alem-tree") || !reader.Read(&version) ||
      version != 1) {
    return false;
  }
  DecisionTree result;
  size_t num_nodes = 0;
  if (!reader.Read(&result.config_.max_depth) ||
      !reader.Read(&result.config_.min_samples_split) ||
      !reader.Read(&result.config_.max_features) ||
      !reader.Read(&result.config_.seed) || !reader.Read(&result.root_) ||
      !reader.Read(&result.depth_) || !reader.Read(&num_nodes)) {
    return false;
  }
  if (num_nodes == 0 || num_nodes > (1u << 26)) return false;
  result.nodes_.resize(num_nodes);
  for (size_t index = 0; index < num_nodes; ++index) {
    auto& node = result.nodes_[index];
    int is_leaf = 0;
    if (!reader.Read(&is_leaf) || !reader.Read(&node.label) ||
        !reader.Read(&node.dim) || !reader.Read(&node.threshold) ||
        !reader.Read(&node.left) || !reader.Read(&node.right)) {
      return false;
    }
    node.is_leaf = is_leaf != 0;
    // Trees are written post-order (children before their parent), so a
    // split's children must satisfy 0 <= child < index: every index Predict
    // follows stays in bounds and no cycle can form. Leaf children are
    // never read.
    const int before = static_cast<int>(index);
    if (!node.is_leaf && (node.left < 0 || node.right < 0 ||
                          node.left >= before || node.right >= before)) {
      return false;
    }
  }
  if (result.root_ < 0 || result.root_ >= static_cast<int>(num_nodes)) {
    return false;
  }
  *model = std::move(result);
  return true;
}

// ---- RandomForest ----

std::string SerializeForest(const RandomForest& model) {
  ALEM_CHECK(model.trained());
  Writer writer;
  writer.Line("alem-forest").Line(1);
  writer.Line(model.config_.num_trees)
      .Line(model.config_.bootstrap ? 1 : 0)
      .Line(model.config_.seed);
  writer.Line(model.trees_.size());
  // Warm-refit watermark (docs/training.md), written only when the forest is
  // in the Poisson-bootstrap scheme. Readers that predate it skip straight
  // to the tree section (located by tag), so the format version stays 1.
  if (model.last_fit_count_ > 0) {
    writer.Line(std::string("warm ") + std::to_string(model.last_fit_count_));
  }
  std::string blob = writer.str();
  for (const DecisionTree& tree : model.trees_) {
    blob += SerializeTree(tree);
  }
  return blob;
}

bool DeserializeForest(const std::string& text, RandomForest* model) {
  // Split: header lines first, then concatenated tree blobs.
  std::istringstream in(text);
  std::string tag;
  int version = 0;
  std::getline(in, tag);
  if (tag != "alem-forest" || !(in >> version) || version != 1) return false;
  RandomForest result;
  int bootstrap = 0;
  size_t num_trees = 0;
  if (!(in >> result.config_.num_trees >> bootstrap >> result.config_.seed >>
        num_trees)) {
    return false;
  }
  result.config_.bootstrap = bootstrap != 0;
  if (num_trees == 0 || num_trees > 4096) return false;

  // Optional warm-refit watermark ("warm <count>"); absent in blobs written
  // before warm-start existed and after cold fits. Anything else here is the
  // tree section, found by tag below, so a failed read is not an error.
  std::string maybe_warm;
  if (in >> maybe_warm && maybe_warm == "warm") {
    if (!(in >> result.last_fit_count_)) return false;
  }

  // Find the start of the tree section and split on the tree tag.
  const std::string tree_tag = "alem-tree\n";
  size_t cursor = text.find(tree_tag);
  result.trees_.resize(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    if (cursor == std::string::npos) return false;
    const size_t next = text.find(tree_tag, cursor + tree_tag.size());
    const std::string tree_blob =
        text.substr(cursor, next == std::string::npos ? std::string::npos
                                                      : next - cursor);
    if (!DeserializeTree(tree_blob, &result.trees_[t])) return false;
    cursor = next;
  }
  // Restore the contiguous batch-traversal arrays alongside the trees.
  result.RebuildFlatForest();
  *model = std::move(result);
  return true;
}

// ---- NeuralNetwork ----

std::string SerializeNeuralNet(const NeuralNetwork& model) {
  ALEM_CHECK(model.trained());
  Writer writer;
  writer.Line("alem-nn").Line(1);
  const NeuralNetConfig& config = model.config_;
  std::vector<int> hidden = config.hidden_sizes;
  writer.Vector(hidden);
  writer.Line(config.epochs)
      .Line(config.batch_size)
      .Line(config.learning_rate)
      .Line(config.learning_rate_decay)
      .Line(config.momentum)
      .Line(config.dropout)
      .Line(config.use_batch_norm ? 1 : 0)
      .Line(config.positive_weight_cap)
      .Line(config.seed);
  writer.Line(model.layers_.size());
  for (const auto& layer : model.layers_) {
    writer.Line(layer.in).Line(layer.out);
    writer.Vector(layer.weights);
    writer.Vector(layer.bias);
    writer.Vector(layer.gamma);
    writer.Vector(layer.beta);
    writer.Vector(layer.running_mean);
    writer.Vector(layer.running_var);
  }
  writer.Vector(model.out_weights_);
  writer.Line(model.out_bias_);
  return writer.str();
}

bool DeserializeNeuralNet(const std::string& text, NeuralNetwork* model) {
  Reader reader(text);
  int version = 0;
  if (!reader.ExpectTag("alem-nn") || !reader.Read(&version) || version != 1) {
    return false;
  }
  NeuralNetConfig config;
  if (!reader.ReadVector(&config.hidden_sizes)) return false;
  int use_batch_norm = 0;
  if (!reader.Read(&config.epochs) || !reader.Read(&config.batch_size) ||
      !reader.Read(&config.learning_rate) ||
      !reader.Read(&config.learning_rate_decay) ||
      !reader.Read(&config.momentum) || !reader.Read(&config.dropout) ||
      !reader.Read(&use_batch_norm) ||
      !reader.Read(&config.positive_weight_cap) ||
      !reader.Read(&config.seed)) {
    return false;
  }
  config.use_batch_norm = use_batch_norm != 0;

  NeuralNetwork result(config);
  size_t num_layers = 0;
  if (!reader.Read(&num_layers) || num_layers != config.hidden_sizes.size()) {
    return false;
  }
  result.layers_.resize(num_layers);
  int previous_out = 0;
  for (auto& layer : result.layers_) {
    if (!reader.Read(&layer.in) || !reader.Read(&layer.out) ||
        !reader.ReadVector(&layer.weights) || !reader.ReadVector(&layer.bias) ||
        !reader.ReadVector(&layer.gamma) || !reader.ReadVector(&layer.beta) ||
        !reader.ReadVector(&layer.running_mean) ||
        !reader.ReadVector(&layer.running_var)) {
      return false;
    }
    // Margin reads each layer's input from the previous layer's output
    // and every per-unit vector at [0, out): the shapes must chain.
    const size_t out = static_cast<size_t>(layer.out);
    if (layer.in <= 0 || layer.out <= 0 ||
        (previous_out > 0 && layer.in != previous_out) ||
        layer.weights.size() != static_cast<size_t>(layer.in) * out ||
        layer.bias.size() != out || layer.gamma.size() != out ||
        layer.beta.size() != out || layer.running_mean.size() != out ||
        layer.running_var.size() != out) {
      return false;
    }
    previous_out = layer.out;
    // Optimizer state is not persisted; re-initialize zeroed buffers so the
    // model could be fine-tuned after loading.
    layer.v_weights.assign(layer.weights.size(), 0.0);
    layer.v_bias.assign(layer.bias.size(), 0.0);
    layer.v_gamma.assign(layer.gamma.size(), 0.0);
    layer.v_beta.assign(layer.beta.size(), 0.0);
  }
  if (!reader.ReadVector(&result.out_weights_) ||
      !reader.Read(&result.out_bias_) ||
      result.out_weights_.size() != static_cast<size_t>(previous_out)) {
    return false;
  }
  result.v_out_weights_.assign(result.out_weights_.size(), 0.0);
  result.v_out_bias_ = 0.0;
  *model = std::move(result);
  return true;
}

// ---- Dnf ----

std::string SerializeDnf(const Dnf& dnf) {
  Writer writer;
  writer.Line("alem-dnf").Line(1);
  writer.Line(dnf.conjunctions.size());
  for (const Conjunction& conjunction : dnf.conjunctions) {
    writer.Vector(conjunction.atoms);
  }
  return writer.str();
}

bool DeserializeDnf(const std::string& text, Dnf* dnf) {
  Reader reader(text);
  int version = 0;
  if (!reader.ExpectTag("alem-dnf") || !reader.Read(&version) ||
      version != 1) {
    return false;
  }
  Dnf result;
  size_t num_conjunctions = 0;
  if (!reader.Read(&num_conjunctions) || num_conjunctions > (1u << 20)) {
    return false;
  }
  result.conjunctions.resize(num_conjunctions);
  for (Conjunction& conjunction : result.conjunctions) {
    if (!reader.ReadVector(&conjunction.atoms)) return false;
  }
  *dnf = std::move(result);
  return true;
}

// ---- Files ----

bool SaveToFile(const std::string& path, const std::string& blob) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << blob;
  return static_cast<bool>(out);
}

bool LoadFromFile(const std::string& path, std::string* blob) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *blob = buffer.str();
  return true;
}

}  // namespace alem
