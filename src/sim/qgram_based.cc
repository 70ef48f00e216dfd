#include "sim/qgram_based.h"

namespace alem {

double QGramSimilarity::ComputeNonNull(const AttributeProfile& a,
                                       const AttributeProfile& b) const {
  const int total = a.bigram_counts.total() + b.bigram_counts.total();
  if (total == 0) return 1.0;
  const int distance =
      BigramMultiset::L1Distance(a.bigram_counts, b.bigram_counts);
  return 1.0 - static_cast<double>(distance) / static_cast<double>(total);
}

double CosineQGramSimilarity::ComputeNonNull(const AttributeProfile& a,
                                             const AttributeProfile& b) const {
  const double denom = a.bigram_counts.norm() * b.bigram_counts.norm();
  if (denom == 0.0) {
    return a.bigram_counts.total() == b.bigram_counts.total() ? 1.0 : 0.0;
  }
  return BigramMultiset::Dot(a.bigram_counts, b.bigram_counts) / denom;
}

double SimonWhiteSimilarity::ComputeNonNull(const AttributeProfile& a,
                                            const AttributeProfile& b) const {
  const int total = a.bigram_counts.total() + b.bigram_counts.total();
  if (total == 0) return 1.0;
  const int intersection =
      BigramMultiset::MultisetIntersection(a.bigram_counts, b.bigram_counts);
  return 2.0 * intersection / static_cast<double>(total);
}

}  // namespace alem
