// Random forest: bagged ensemble of CART trees (Corleone settings).
//
// The forest doubles as a *learner-aware QBC committee* (Section 4.1.1 of
// the paper): the per-tree votes on an unlabeled example give the positive
// fraction Pi/C from which the committee variance Pi/C * (1 - Pi/C) is
// computed, with no separate bootstrap committee construction.

#ifndef ALEM_ML_RANDOM_FOREST_H_
#define ALEM_ML_RANDOM_FOREST_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "features/feature_matrix.h"
#include "ml/decision_tree.h"
#include "ml/tree_flat.h"

namespace alem {

struct RandomForestConfig {
  // Corleone uses 10; the paper parameterizes this (2, 10, 20).
  int num_trees = 10;
  bool bootstrap = true;
  DecisionTreeConfig tree;
  uint64_t seed = 1;
};

class RandomForest {
 public:
  RandomForest() = default;
  explicit RandomForest(const RandomForestConfig& config) : config_(config) {}

  void Fit(const FeatureMatrix& features, const std::vector<int>& labels);

  // Warm-start refit for a labeled set that grew since the last warm fit.
  // Uses a *stateless Poisson bootstrap*: tree t's sample over n labeled
  // positions repeats position p `PoissonCount(seed, t, p)` times, where the
  // count is a pure hash of (config seed, tree, position). Growing the
  // labeled set therefore only appends to each tree's sample, so a tree
  // whose count is zero for every new position has exactly the sample it was
  // last fit on and is skipped — bitwise-preserved (refitting it would use
  // the identical sample and the same stable per-tree seed). The first warm
  // fit (or one following a cold Fit, whose sequential bootstrap draws
  // differ) rebuilds every tree under this scheme. `trees_refit`, when
  // non-null, receives the number of trees actually re-fit. Returns false
  // (model untouched) when bootstrap is disabled or the labeled set shrank;
  // callers then fall back to Fit. See docs/training.md.
  bool FitWarm(const FeatureMatrix& features, const std::vector<int>& labels,
               size_t* trees_refit = nullptr);

  // Labeled-set size at the last warm fit (0 = not in the warm scheme).
  // Serialized with the model so warm refits resume across processes.
  size_t warm_fit_count() const { return last_fit_count_; }

  // Fraction of trees voting positive (the committee agreement statistic).
  double PositiveFraction(const float* x) const;

  // Batched committee voting over selected rows: votes[i] = #trees voting
  // positive on row rows[i]. Traverses the contiguous flattened forest
  // (16-byte nodes, all trees in one array) examples-outer, each example's
  // vote accumulating in a register across trees in one cache-friendly
  // pass. Integer votes are exact, so every derived statistic is
  // bitwise-equal to the scalar path.
  void VotesBatch(const FeatureMatrix& features, std::span<const size_t> rows,
                  int* votes) const;

  // Batched PositiveFraction / Predict built on VotesBatch.
  void PositiveFractionBatch(const FeatureMatrix& features,
                             std::span<const size_t> rows, double* out) const;
  void PredictBatch(const FeatureMatrix& features, std::span<const size_t> rows,
                    int* out) const;

  // Majority vote: 1 when at least half of the trees vote positive.
  int Predict(const float* x) const;
  std::vector<int> PredictAll(const FeatureMatrix& features) const;

  bool trained() const { return !trees_.empty(); }
  const std::vector<DecisionTree>& trees() const { return trees_; }
  // True when every tree fits rows of `width` features
  // (DecisionTree::FitsWidth).
  bool FitsWidth(size_t width) const;
  const RandomForestConfig& config() const { return config_; }

  // Maximum depth across all trees (Fig. 18b).
  int MaxDepth() const;
  // Total #DNF atoms across all trees (Fig. 18a).
  size_t TotalDnfAtoms() const;

 private:
  friend std::string SerializeForest(const RandomForest& model);
  friend bool DeserializeForest(const std::string& text, RandomForest* model);

  // Rebuilds the contiguous flattened-forest arrays from trees_. Must be
  // called whenever trees_ changes (Fit, deserialization).
  void RebuildFlatForest();

  RandomForestConfig config_;
  std::vector<DecisionTree> trees_;
  // Warm-refit watermark: #labeled examples covered by the current trees'
  // Poisson-bootstrap samples. Reset to 0 by cold Fit.
  size_t last_fit_count_ = 0;
  // All trees' nodes concatenated in one contiguous array (16-byte FlatNode
  // layout), plus each tree's root offset — the batch traversal structure.
  std::vector<FlatNode> flat_nodes_;
  std::vector<int32_t> flat_roots_;
};

}  // namespace alem

#endif  // ALEM_ML_RANDOM_FOREST_H_
