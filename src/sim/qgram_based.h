// Character q-gram (q=2, padded) similarity functions.

#ifndef ALEM_SIM_QGRAM_BASED_H_
#define ALEM_SIM_QGRAM_BASED_H_

#include <string_view>

#include "sim/similarity.h"

namespace alem {

// Ukkonen q-gram distance, normalized:
// 1 - L1(bigrams(a), bigrams(b)) / (total(a) + total(b)).
class QGramSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "QGram"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Cosine over bigram count vectors.
class CosineQGramSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "CosineQGrams"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// Simon White coefficient: Dice over bigram multisets,
// 2 * |multiset intersection| / (total(a) + total(b)).
class SimonWhiteSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "SimonWhite"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

}  // namespace alem

#endif  // ALEM_SIM_QGRAM_BASED_H_
