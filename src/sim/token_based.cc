#include "sim/token_based.h"

#include <algorithm>
#include <cmath>

#include "sim/edit_based.h"

namespace alem {

double JaccardTokenSimilarity::ComputeNonNull(const AttributeProfile& a,
                                              const AttributeProfile& b) const {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const int unions = static_cast<int>(a.token_counts.distinct()) +
                     static_cast<int>(b.token_counts.distinct()) -
                     intersection;
  if (unions == 0) return 1.0;  // Both token sets empty (e.g., punctuation).
  return static_cast<double>(intersection) / unions;
}

double DiceTokenSimilarity::ComputeNonNull(const AttributeProfile& a,
                                           const AttributeProfile& b) const {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const size_t denom = a.token_counts.distinct() + b.token_counts.distinct();
  if (denom == 0) return 1.0;
  return 2.0 * intersection / static_cast<double>(denom);
}

double OverlapCoefficientSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const size_t denom =
      std::min(a.token_counts.distinct(), b.token_counts.distinct());
  if (denom == 0) {
    return a.token_counts.distinct() == b.token_counts.distinct() ? 1.0 : 0.0;
  }
  return static_cast<double>(intersection) / static_cast<double>(denom);
}

double CosineTokenSimilarity::ComputeNonNull(const AttributeProfile& a,
                                             const AttributeProfile& b) const {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const double denom =
      std::sqrt(static_cast<double>(a.token_counts.distinct()) *
                static_cast<double>(b.token_counts.distinct()));
  if (denom == 0.0) {
    return a.token_counts.distinct() == b.token_counts.distinct() ? 1.0 : 0.0;
  }
  return intersection / denom;
}

double MatchingCoefficientSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const size_t denom =
      std::max(a.token_counts.distinct(), b.token_counts.distinct());
  if (denom == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(denom);
}

double BlockDistanceSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  const int total = a.token_counts.total() + b.token_counts.total();
  if (total == 0) return 1.0;
  const int distance =
      CountedMultiset::L1Distance(a.token_counts, b.token_counts);
  return 1.0 - static_cast<double>(distance) / static_cast<double>(total);
}

double EuclideanSimilarity::ComputeNonNull(const AttributeProfile& a,
                                           const AttributeProfile& b) const {
  const double ta = a.token_counts.total();
  const double tb = b.token_counts.total();
  const double bound = std::sqrt(ta * ta + tb * tb);
  if (bound == 0.0) return 1.0;
  const double distance = std::sqrt(
      CountedMultiset::SquaredL2Distance(a.token_counts, b.token_counts));
  return 1.0 - distance / bound;
}

namespace {

// Core symmetric Monge-Elkan with caller-provided Jaro-Winkler scratch:
// the single implementation behind both the scalar path (fresh scratch per
// call) and the batch kernel (one scratch per chunk).
double MongeElkanSim(const AttributeProfile& a, const AttributeProfile& b,
                     internal_edit::EditScratch& scratch) {
  // Cost control: the inner loop is |A| * |B| Jaro-Winkler calls.
  constexpr size_t kMaxTokens = 30;
  using internal_edit::kMaxMaskedLength;
  const size_t na = std::min(a.tokens.size(), kMaxTokens);
  const size_t nb = std::min(b.tokens.size(), kMaxTokens);
  if (na == 0 || nb == 0) return na == nb ? 1.0 : 0.0;

  auto directed = [&scratch](const std::vector<std::string>& from,
                             const std::vector<std::string>& to, size_t nf,
                             size_t nt) {
    // Each target token's masks are built once here, not once per pair of
    // tokens, and cleared again before returning.
    std::vector<internal_edit::CharMasks>& masks = scratch.token_masks;
    if (masks.size() < nt) masks.resize(nt);
    for (size_t j = 0; j < nt; ++j) {
      if (to[j].size() <= kMaxMaskedLength) masks[j].Set(to[j]);
    }
    double sum = 0.0;
    for (size_t i = 0; i < nf; ++i) {
      double best = 0.0;
      for (size_t j = 0; j < nt; ++j) {
        const bool masked = from[i].size() <= kMaxMaskedLength &&
                            to[j].size() <= kMaxMaskedLength;
        const double jw =
            masked
                ? internal_edit::JaroWinklerWithMasks(from[i], to[j], masks[j])
                : internal_edit::JaroWinklerRawWith(from[i], to[j], scratch);
        best = std::max(best, jw);
        if (best >= 1.0) break;
      }
      sum += best;
    }
    for (size_t j = 0; j < nt; ++j) {
      if (to[j].size() <= kMaxMaskedLength) masks[j].Clear(to[j]);
    }
    return sum / static_cast<double>(nf);
  };
  return 0.5 * (directed(a.tokens, b.tokens, na, nb) +
                directed(b.tokens, a.tokens, nb, na));
}

}  // namespace

double MongeElkanSimilarity::ComputeNonNull(const AttributeProfile& a,
                                            const AttributeProfile& b) const {
  internal_edit::EditScratch scratch;
  return MongeElkanSim(a, b, scratch);
}

void MongeElkanSimilarity::EvaluateChunk(const AttributeProfile* const* left,
                                         const AttributeProfile* const* right,
                                         size_t begin, size_t end,
                                         float* out) const {
  internal_edit::EditScratch scratch;
  for (size_t i = begin; i < end; ++i) {
    const AttributeProfile& a = *left[i];
    const AttributeProfile& b = *right[i];
    out[i] = (a.is_null || b.is_null)
                 ? 0.0f
                 : static_cast<float>(
                       std::clamp(MongeElkanSim(a, b, scratch), 0.0, 1.0));
  }
}

}  // namespace alem
