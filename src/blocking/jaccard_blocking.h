// Offline blocking (Section 6 of the paper).
//
// The paper prunes the Cartesian product of record pairs with a Jaccard
// similarity threshold over the tokenized attributes of each pair (threshold
// 0.1875 on Abt-Buy/DBLP-ACM/DBLP-Scholar, 0.12 on Amazon-GoogleProducts,
// 0.16 on Cora and Walmart-Amazon). This module implements that step as one
// exact join over a token inverted index, so that only pairs sharing at least
// one token are scored, plus a brute-force reference implementation that the
// tests use as the oracle for exact equivalence.

#ifndef ALEM_BLOCKING_JACCARD_BLOCKING_H_
#define ALEM_BLOCKING_JACCARD_BLOCKING_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace alem {

// Version of JaccardBlocking's output. Feature-cache entries hold the
// post-blocking pairs and are keyed on this constant, so any change to the
// pairs the join returns or to their order must bump it (the same rule as
// kSimRegistryVersion); the bump turns every cached entry into a miss.
inline constexpr uint32_t kBlockingVersion = 1;

struct BlockingConfig {
  // Minimum token-set Jaccard similarity for a pair to survive blocking.
  double jaccard_threshold = 0.1875;
};

// Candidate pairs whose tokenized matched-column concatenation has Jaccard
// similarity >= threshold. Output is sorted by (left, right).
std::vector<RecordPair> JaccardBlocking(const EmDataset& dataset,
                                        const BlockingConfig& config);

// O(|left| * |right|) reference implementation; identical output.
std::vector<RecordPair> JaccardBlockingBruteForce(const EmDataset& dataset,
                                                  const BlockingConfig& config);

// Fraction of ground-truth matches retained by `pairs` (blocking recall).
double BlockingRecall(const EmDataset& dataset,
                      const std::vector<RecordPair>& pairs);

namespace internal_blocking {

// Jaccard over two sorted unique int vectors.
double SortedJaccard(const std::vector<int>& a, const std::vector<int>& b);

}  // namespace internal_blocking

}  // namespace alem

#endif  // ALEM_BLOCKING_JACCARD_BLOCKING_H_
