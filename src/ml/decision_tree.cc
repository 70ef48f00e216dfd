#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace alem {
namespace {

double GiniImpurity(size_t positives, size_t total) {
  if (total == 0) return 0.0;
  const double p = static_cast<double>(positives) / static_cast<double>(total);
  return 2.0 * p * (1.0 - p);
}

}  // namespace

void DecisionTree::Fit(const FeatureMatrix& features,
                       const std::vector<int>& labels) {
  ALEM_CHECK_EQ(features.rows(), labels.size());
  ALEM_CHECK_GT(features.rows(), 0u);
  nodes_.clear();
  depth_ = 0;

  std::vector<size_t> indices(features.rows());
  std::iota(indices.begin(), indices.end(), 0u);
  Rng rng(config_.seed);
  root_ = BuildNode(features, labels, indices, 0, indices.size(), 1, rng);
}

int DecisionTree::BuildNode(const FeatureMatrix& features,
                            const std::vector<int>& labels,
                            std::vector<size_t>& indices, size_t begin,
                            size_t end, int depth, Rng& rng) {
  const size_t count = end - begin;
  ALEM_CHECK_GT(count, 0u);
  depth_ = std::max(depth_, depth);

  size_t positives = 0;
  for (size_t i = begin; i < end; ++i) positives += labels[indices[i]];
  const int majority = positives * 2 >= count ? 1 : 0;

  auto make_leaf = [&]() {
    Node leaf;
    leaf.is_leaf = true;
    leaf.label = majority;
    nodes_.push_back(leaf);
    return static_cast<int>(nodes_.size() - 1);
  };

  const bool pure = positives == 0 || positives == count;
  const bool too_small =
      count < static_cast<size_t>(std::max(2, config_.min_samples_split));
  const bool too_deep = config_.max_depth > 0 && depth >= config_.max_depth;
  if (pure || too_small || too_deep) return make_leaf();

  const size_t dims = features.dims();
  size_t num_candidates;
  if (config_.max_features < 0) {
    num_candidates = dims;
  } else if (config_.max_features == 0) {
    num_candidates = static_cast<size_t>(
        std::floor(std::log2(static_cast<double>(dims))) + 1);
  } else {
    num_candidates = static_cast<size_t>(config_.max_features);
  }
  num_candidates = std::min(num_candidates, dims);

  const std::vector<size_t> candidates =
      rng.SampleWithoutReplacement(dims, num_candidates);

  // Find the (feature, threshold) split with minimum weighted Gini impurity.
  const double parent_impurity = GiniImpurity(positives, count);
  double best_gain = 1e-12;
  size_t best_dim = 0;
  float best_threshold = 0.0f;

  std::vector<std::pair<float, int>> values;
  values.reserve(count);
  for (const size_t dim : candidates) {
    values.clear();
    for (size_t i = begin; i < end; ++i) {
      values.emplace_back(features.At(indices[i], dim), labels[indices[i]]);
    }
    std::sort(values.begin(), values.end());
    if (values.front().first == values.back().first) continue;

    size_t left_count = 0;
    size_t left_positives = 0;
    for (size_t i = 0; i + 1 < values.size(); ++i) {
      ++left_count;
      left_positives += static_cast<size_t>(values[i].second);
      if (values[i].first == values[i + 1].first) continue;
      const size_t right_count = count - left_count;
      const size_t right_positives = positives - left_positives;
      const double weighted =
          (GiniImpurity(left_positives, left_count) * left_count +
           GiniImpurity(right_positives, right_count) * right_count) /
          static_cast<double>(count);
      const double gain = parent_impurity - weighted;
      if (gain > best_gain) {
        best_gain = gain;
        best_dim = dim;
        // Midpoint between the two distinct values.
        best_threshold = 0.5f * (values[i].first + values[i + 1].first);
      }
    }
  }
  if (best_gain <= 1e-12) return make_leaf();

  // Partition indices[begin, end) by the chosen split.
  const auto middle = std::partition(
      indices.begin() + static_cast<long>(begin),
      indices.begin() + static_cast<long>(end), [&](size_t row) {
        return features.At(row, best_dim) < best_threshold;
      });
  const size_t split =
      static_cast<size_t>(middle - indices.begin());
  if (split == begin || split == end) return make_leaf();

  const int left_child =
      BuildNode(features, labels, indices, begin, split, depth + 1, rng);
  const int right_child =
      BuildNode(features, labels, indices, split, end, depth + 1, rng);

  Node node;
  node.is_leaf = false;
  node.label = majority;
  node.dim = best_dim;
  node.threshold = best_threshold;
  node.left = left_child;
  node.right = right_child;
  nodes_.push_back(node);
  return static_cast<int>(nodes_.size() - 1);
}

int DecisionTree::Predict(const float* x) const {
  ALEM_CHECK(trained());
  int node = root_;
  while (!nodes_[static_cast<size_t>(node)].is_leaf) {
    const Node& current = nodes_[static_cast<size_t>(node)];
    node = x[current.dim] < current.threshold ? current.left : current.right;
  }
  return nodes_[static_cast<size_t>(node)].label;
}

bool DecisionTree::FitsWidth(size_t width) const {
  for (const Node& node : nodes_) {
    if (!node.is_leaf && node.dim >= width) return false;
  }
  return true;
}

std::vector<int> DecisionTree::PredictAll(const FeatureMatrix& features) const {
  std::vector<int> predictions(features.rows());
  for (size_t i = 0; i < features.rows(); ++i) {
    predictions[i] = Predict(features.Row(i));
  }
  return predictions;
}

int32_t DecisionTree::FlattenInto(std::vector<FlatNode>* out) const {
  ALEM_CHECK(trained());
  // Preorder with an explicit stack; both children of a split are allocated
  // together so sibling nodes share cache lines.
  struct Pending {
    int node;      // Index into nodes_.
    int32_t slot;  // Flat index reserved for it in *out.
  };
  const int32_t flat_root = static_cast<int32_t>(out->size());
  out->emplace_back();
  std::vector<Pending> stack{{root_, flat_root}};
  while (!stack.empty()) {
    const Pending current = stack.back();
    stack.pop_back();
    const Node& node = nodes_[static_cast<size_t>(current.node)];
    FlatNode& flat = (*out)[static_cast<size_t>(current.slot)];
    if (node.is_leaf) {
      flat.left = kFlatLeaf;
      flat.right = node.label;
      continue;
    }
    const int32_t left_slot = static_cast<int32_t>(out->size());
    out->emplace_back();
    const int32_t right_slot = static_cast<int32_t>(out->size());
    out->emplace_back();
    // emplace_back may reallocate; re-resolve the slot reference.
    FlatNode& split = (*out)[static_cast<size_t>(current.slot)];
    split.left = left_slot;
    split.right = right_slot;
    split.dim = static_cast<uint32_t>(node.dim);
    split.threshold = node.threshold;
    stack.push_back({node.right, right_slot});
    stack.push_back({node.left, left_slot});
  }
  return flat_root;
}

void DecisionTree::CollectClauses(int node, TreeDnfClause& path,
                                  std::vector<TreeDnfClause>* clauses) const {
  const Node& current = nodes_[static_cast<size_t>(node)];
  if (current.is_leaf) {
    if (current.label == 1) clauses->push_back(path);
    return;
  }
  path.push_back(TreePredicate{current.dim, current.threshold, false});
  CollectClauses(current.left, path, clauses);
  path.back().greater_equal = true;
  CollectClauses(current.right, path, clauses);
  path.pop_back();
}

std::vector<TreeDnfClause> DecisionTree::ToDnfClauses() const {
  std::vector<TreeDnfClause> clauses;
  if (trained()) {
    TreeDnfClause path;
    CollectClauses(root_, path, &clauses);
  }
  return clauses;
}

size_t DecisionTree::NumDnfAtoms() const {
  size_t atoms = 0;
  for (const TreeDnfClause& clause : ToDnfClauses()) {
    atoms += clause.size();
  }
  return atoms;
}

}  // namespace alem
