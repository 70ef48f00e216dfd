#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "parallel/pool.h"
#include "util/check.h"
#include "util/rng.h"

namespace alem {
namespace {

// How many times labeled position p appears in tree t's Poisson-bootstrap
// sample: a Poisson(1) draw by inverse CDF on a uniform seeded purely from
// (forest seed, t, p). Stateless by construction — the count for an existing
// position never changes as the labeled set grows.
size_t PoissonMembership(uint64_t seed, size_t tree, size_t position) {
  Rng rng(seed ^ ((tree + 1) * 0x9e3779b97f4a7c15ULL) ^
          ((position + 1) * 0xbf58476d1ce4e5b9ULL));
  const double u = rng.NextDouble();
  double mass = std::exp(-1.0);  // P(k = 0) for Poisson(1).
  double cumulative = mass;
  size_t k = 0;
  while (u > cumulative && k < 16) {
    ++k;
    mass /= static_cast<double>(k);
    cumulative += mass;
  }
  return k;
}

// Stable per-tree fitting seed for warm refits. Unlike the cold path (which
// draws tree seeds from one sequential stream), this is position-independent
// so a refit of tree t produces identical randomness at any labeled-set
// size — the untouched-tree skip relies on it.
uint64_t WarmTreeSeed(uint64_t seed, size_t tree) {
  uint64_t h = seed + (tree + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

}  // namespace

void RandomForest::Fit(const FeatureMatrix& features,
                       const std::vector<int>& labels) {
  ALEM_CHECK_EQ(features.rows(), labels.size());
  ALEM_CHECK_GT(features.rows(), 0u);
  ALEM_CHECK_GT(config_.num_trees, 0);
  const size_t num_trees = static_cast<size_t>(config_.num_trees);
  const size_t n = features.rows();

  // Draw every tree's seed and bootstrap sample serially first — the exact
  // RNG consumption order of the serial implementation — then fit the trees
  // in parallel (one per task). Tree fitting is pure given (seed, sample),
  // so the forest is bitwise-identical at every thread count.
  struct TreePlan {
    uint64_t seed = 0;
    std::vector<size_t> sample;
  };
  Rng rng(config_.seed);
  std::vector<TreePlan> plans(num_trees);
  for (TreePlan& plan : plans) {
    plan.seed = rng.Next();
    if (config_.bootstrap) plan.sample = rng.SampleWithReplacement(n, n);
  }

  trees_.clear();
  trees_.resize(num_trees);
  parallel::ParallelFor(
      0, num_trees, 1,
      [&](size_t begin, size_t end, size_t chunk) {
        (void)chunk;
        for (size_t t = begin; t < end; ++t) {
          DecisionTreeConfig tree_config = config_.tree;
          tree_config.seed = plans[t].seed;
          DecisionTree tree(tree_config);
          if (config_.bootstrap) {
            const std::vector<size_t>& sample = plans[t].sample;
            FeatureMatrix sampled = features.Gather(sample);
            std::vector<int> sampled_labels(n);
            for (size_t i = 0; i < n; ++i) {
              sampled_labels[i] = labels[sample[i]];
            }
            tree.Fit(sampled, sampled_labels);
          } else {
            tree.Fit(features, labels);
          }
          trees_[t] = std::move(tree);
        }
      },
      "ml.forest_fit");
  RebuildFlatForest();
  last_fit_count_ = 0;  // Cold fits leave the warm scheme.
}

bool RandomForest::FitWarm(const FeatureMatrix& features,
                           const std::vector<int>& labels,
                           size_t* trees_refit) {
  ALEM_CHECK_EQ(features.rows(), labels.size());
  ALEM_CHECK_GT(features.rows(), 0u);
  ALEM_CHECK_GT(config_.num_trees, 0);
  const size_t num_trees = static_cast<size_t>(config_.num_trees);
  const size_t n = features.rows();
  // Without bootstrap every tree trains on the full data, so every new label
  // touches every tree and warm refits cannot save anything; a shrinking
  // labeled set breaks the append-only sample property. Both fall back cold.
  if (!config_.bootstrap) return false;
  if (last_fit_count_ > 0 && (n < last_fit_count_ || trees_.size() != num_trees)) {
    return false;
  }

  // A tree needs refitting iff any position added since the last warm fit
  // lands in its Poisson sample. The first warm fit (watermark 0) rebuilds
  // everything — cold-fit trees used the sequential bootstrap, not this
  // scheme.
  const bool rebuild_all = last_fit_count_ == 0 || trees_.empty();
  std::vector<char> refit(num_trees, rebuild_all ? 1 : 0);
  if (!rebuild_all) {
    for (size_t t = 0; t < num_trees; ++t) {
      for (size_t p = last_fit_count_; p < n; ++p) {
        if (PoissonMembership(config_.seed, t, p) > 0) {
          refit[t] = 1;
          break;
        }
      }
    }
  }

  trees_.resize(num_trees);
  size_t refit_count = 0;
  for (const char flag : refit) refit_count += flag != 0 ? 1u : 0u;
  parallel::ParallelFor(
      0, num_trees, 1,
      [&](size_t begin, size_t end, size_t chunk) {
        (void)chunk;
        for (size_t t = begin; t < end; ++t) {
          if (refit[t] == 0) continue;
          std::vector<size_t> sample;
          sample.reserve(n);
          for (size_t p = 0; p < n; ++p) {
            const size_t count = PoissonMembership(config_.seed, t, p);
            sample.insert(sample.end(), count, p);
          }
          // A fully empty sample (possible only for tiny n) falls back to
          // the whole labeled set, still a pure function of (seed, t, n).
          if (sample.empty()) {
            sample.resize(n);
            std::iota(sample.begin(), sample.end(), 0u);
          }
          DecisionTreeConfig tree_config = config_.tree;
          tree_config.seed = WarmTreeSeed(config_.seed, t);
          DecisionTree tree(tree_config);
          FeatureMatrix sampled = features.Gather(sample);
          std::vector<int> sampled_labels(sample.size());
          for (size_t i = 0; i < sample.size(); ++i) {
            sampled_labels[i] = labels[sample[i]];
          }
          tree.Fit(sampled, sampled_labels);
          trees_[t] = std::move(tree);
        }
      },
      "ml.forest_fit");
  RebuildFlatForest();
  last_fit_count_ = n;
  if (trees_refit != nullptr) *trees_refit = refit_count;
  return true;
}

void RandomForest::RebuildFlatForest() {
  flat_nodes_.clear();
  flat_roots_.clear();
  flat_roots_.reserve(trees_.size());
  size_t total_nodes = 0;
  for (const DecisionTree& tree : trees_) total_nodes += tree.num_nodes();
  flat_nodes_.reserve(total_nodes);
  for (const DecisionTree& tree : trees_) {
    flat_roots_.push_back(tree.FlattenInto(&flat_nodes_));
  }
}

double RandomForest::PositiveFraction(const float* x) const {
  ALEM_CHECK(trained());
  size_t votes = 0;
  for (const DecisionTree& tree : trees_) {
    votes += static_cast<size_t>(tree.Predict(x));
  }
  return static_cast<double>(votes) / static_cast<double>(trees_.size());
}

int RandomForest::Predict(const float* x) const {
  return PositiveFraction(x) >= 0.5 ? 1 : 0;
}

void RandomForest::VotesBatch(const FeatureMatrix& features,
                              std::span<const size_t> rows, int* votes) const {
  ALEM_CHECK(trained());
  // Examples-outer / trees-inner over the shared contiguous node array:
  // EM forests are many tiny trees over wide feature rows, so the row is
  // the hot operand — it stays in L1 across all trees while the whole
  // flattened forest (16-byte nodes) fits alongside it, and each example's
  // vote accumulates in a register in one pass. (Trees-outer re-streams the
  // full feature matrix once per tree and measures ~1.8x slower here.)
  const FlatNode* nodes = flat_nodes_.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    const float* x = features.Row(rows[i]);
    int row_votes = 0;
    for (const int32_t root : flat_roots_) {
      row_votes += FlatPredict(nodes, root, x);
    }
    votes[i] = row_votes;
  }
}

void RandomForest::PositiveFractionBatch(const FeatureMatrix& features,
                                         std::span<const size_t> rows,
                                         double* out) const {
  std::vector<int> votes(rows.size());
  VotesBatch(features, rows, votes.data());
  const double num_trees = static_cast<double>(trees_.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i] = static_cast<double>(votes[i]) / num_trees;
  }
}

void RandomForest::PredictBatch(const FeatureMatrix& features,
                                std::span<const size_t> rows, int* out) const {
  std::vector<int> votes(rows.size());
  VotesBatch(features, rows, votes.data());
  const double num_trees = static_cast<double>(trees_.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i] =
        static_cast<double>(votes[i]) / num_trees >= 0.5 ? 1 : 0;
  }
}

std::vector<int> RandomForest::PredictAll(const FeatureMatrix& features) const {
  std::vector<int> predictions(features.rows());
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0u);
  const std::span<const size_t> row_span(rows);
  parallel::ParallelFor(
      0, features.rows(), 256,
      [&](size_t begin, size_t end, size_t chunk) {
        (void)chunk;
        PredictBatch(features, row_span.subspan(begin, end - begin),
                     predictions.data() + begin);
      },
      "ml.batch");
  return predictions;
}

bool RandomForest::FitsWidth(size_t width) const {
  for (const DecisionTree& tree : trees_) {
    if (!tree.FitsWidth(width)) return false;
  }
  return true;
}

int RandomForest::MaxDepth() const {
  int depth = 0;
  for (const DecisionTree& tree : trees_) {
    depth = std::max(depth, tree.depth());
  }
  return depth;
}

size_t RandomForest::TotalDnfAtoms() const {
  size_t atoms = 0;
  for (const DecisionTree& tree : trees_) {
    atoms += tree.NumDnfAtoms();
  }
  return atoms;
}

}  // namespace alem
