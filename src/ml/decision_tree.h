// CART-style binary decision tree with random feature subsampling.
//
// Settings follow Corleone (Gokhale et al.), which the paper adopts for its
// tree-based learner: unlimited depth and a random subset of
// floor(log2(Dim)) + 1 candidate features per split. Splits minimize Gini
// impurity. Trees can be converted to monotone-DNF form (conjunctions of
// threshold predicates over paths that end in a positive leaf), which powers
// the interpretability comparison of Section 6.3.

#ifndef ALEM_ML_DECISION_TREE_H_
#define ALEM_ML_DECISION_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "features/feature_matrix.h"
#include "ml/tree_flat.h"
#include "util/rng.h"

namespace alem {

struct DecisionTreeConfig {
  // 0 means unlimited depth.
  int max_depth = 0;
  // Minimum examples in a node to attempt a split.
  int min_samples_split = 2;
  // 0 means use floor(log2(dims)) + 1 (the Corleone setting); a negative
  // value means consider all features.
  int max_features = 0;
  uint64_t seed = 1;
};

// One predicate along a root-to-leaf path: feature `dim` >= or < `threshold`.
struct TreePredicate {
  size_t dim = 0;
  float threshold = 0.0f;
  bool greater_equal = false;
};

// A conjunction of predicates ending in a positive leaf.
using TreeDnfClause = std::vector<TreePredicate>;

class DecisionTree {
 public:
  DecisionTree() = default;
  explicit DecisionTree(const DecisionTreeConfig& config) : config_(config) {}

  void Fit(const FeatureMatrix& features, const std::vector<int>& labels);

  int Predict(const float* x) const;
  std::vector<int> PredictAll(const FeatureMatrix& features) const;

  // Appends this tree to *out in the compact FlatNode layout (preorder,
  // sibling children adjacent) and returns the flat index of the root.
  // FlatPredict over the appended nodes is bitwise-identical to Predict.
  int32_t FlattenInto(std::vector<FlatNode>* out) const;

  bool trained() const { return !nodes_.empty(); }
  // True when every split reads a feature below `width`, so Predict stays
  // in bounds on rows of that width (checked when a stored model loads).
  bool FitsWidth(size_t width) const;
  int depth() const { return depth_; }
  size_t num_nodes() const { return nodes_.size(); }

  // All root-to-positive-leaf paths as DNF clauses. The number of atoms in
  // the DNF (counted with repetition) is the interpretability metric of
  // Singh et al. used in Fig. 18.
  std::vector<TreeDnfClause> ToDnfClauses() const;
  size_t NumDnfAtoms() const;

 private:
  friend std::string SerializeTree(const DecisionTree& model);
  friend bool DeserializeTree(const std::string& text, DecisionTree* model);

  struct Node {
    bool is_leaf = true;
    int label = 0;
    size_t dim = 0;
    float threshold = 0.0f;  // Goes right when x[dim] >= threshold.
    int left = -1;
    int right = -1;
  };

  int BuildNode(const FeatureMatrix& features, const std::vector<int>& labels,
                std::vector<size_t>& indices, size_t begin, size_t end,
                int depth, Rng& rng);
  void CollectClauses(int node, TreeDnfClause& path,
                      std::vector<TreeDnfClause>* clauses) const;

  DecisionTreeConfig config_;
  std::vector<Node> nodes_;
  int root_ = -1;
  int depth_ = 0;
};

}  // namespace alem

#endif  // ALEM_ML_DECISION_TREE_H_
