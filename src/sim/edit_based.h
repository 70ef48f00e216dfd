// Character-level (edit/alignment-based) similarity functions.
//
// All O(n*m) dynamic programs operate on a bounded prefix of the input
// (kMaxAlignmentLength characters) so that long free-text attributes such as
// product descriptions do not blow up feature-extraction cost. The public EM
// datasets' discriminative signal for these functions lives in short
// attributes (names, titles), which fit well under the cap. The cap is also
// what makes the DPs fast: a capped string fits in one 64-bit word, so the
// edit-distance and common-substring DPs run bit-parallel, and the
// alignment scores run in 16-bit SIMD lanes (docs/kernels.md). Every
// kernel is exact: the values are those of the plain row DPs.

#ifndef ALEM_SIM_EDIT_BASED_H_
#define ALEM_SIM_EDIT_BASED_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/similarity.h"

namespace alem {

namespace internal_edit {

// Longest string a CharMasks table can hold: one bit per byte of a word.
inline constexpr size_t kMaxMaskedLength = 64;

// Position masks of one string of at most kMaxMaskedLength bytes (the
// "Peq" table of the bit-parallel string algorithms): bit j of mask(c) is
// set iff s[j] == c. Bytes index the table as uint8_t, so bytes >= 0x80
// are entries 128..255. Set() and Clear() touch only the entries of s's
// bytes, so one table reused across strings costs O(|s|) per string rather
// than a 2 KiB reset. Every user leaves the table all-zero again after use.
class CharMasks {
 public:
  void Set(std::string_view s) {
    for (size_t j = 0; j < s.size(); ++j) {
      masks_[static_cast<uint8_t>(s[j])] |= uint64_t{1} << j;
    }
  }
  void Clear(std::string_view s) {
    for (const char c : s) masks_[static_cast<uint8_t>(c)] = 0;
  }
  uint64_t operator[](char c) const {
    return masks_[static_cast<uint8_t>(c)];
  }

 private:
  uint64_t masks_[256] = {};
};

// Reusable scratch for the edit-based similarities. The scalar similarity
// path constructs one per call; the batch kernels construct one per chunk
// and reuse it across pairs. Every user restores what it borrowed (masks
// all-zero) or re-initializes what it reads (flags via assign()), so a
// reused scratch computes bitwise-identical results to a fresh one.
struct EditScratch {
  // Matched flags of the Jaro window scan for strings over 64 bytes.
  std::vector<uint8_t> flags[2];
  // Masks of the right-hand string of the pair being scored.
  CharMasks masks;
  // Monge-Elkan: masks of each right-hand token, built once per pair.
  std::vector<CharMasks> token_masks;
};

}  // namespace internal_edit

// Maximum prefix length considered by the quadratic alignment functions.
inline constexpr size_t kMaxAlignmentLength = 64;

// Exact string equality on the normalized text (Simmetrics "Identity").
class IdentitySimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "Identity"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
};

// 1 - levenshtein(a, b) / max(|a|, |b|).
class LevenshteinSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "Levenshtein"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
  void EvaluateChunk(const AttributeProfile* const* left,
                     const AttributeProfile* const* right, size_t begin,
                     size_t end, float* out) const override;
};

// Optimal-string-alignment variant of Damerau-Levenshtein (adjacent
// transpositions cost 1), normalized like Levenshtein.
class DamerauLevenshteinSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "DamerauLevenshtein"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
  void EvaluateChunk(const AttributeProfile* const* left,
                     const AttributeProfile* const* right, size_t begin,
                     size_t end, float* out) const override;
};

// Jaro similarity.
class JaroSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "Jaro"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
  void EvaluateChunk(const AttributeProfile* const* left,
                     const AttributeProfile* const* right, size_t begin,
                     size_t end, float* out) const override;
};

// Jaro-Winkler with the standard prefix scale 0.1 and max prefix 4.
class JaroWinklerSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "JaroWinkler"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
  void EvaluateChunk(const AttributeProfile* const* left,
                     const AttributeProfile* const* right, size_t begin,
                     size_t end, float* out) const override;
};

// Global alignment (Needleman-Wunsch) with match +1, mismatch -1, gap -1,
// normalized to [0, 1] by (score + maxLen) / (2 * maxLen).
class NeedlemanWunschSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "NeedlemanWunsch"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
  void EvaluateChunk(const AttributeProfile* const* left,
                     const AttributeProfile* const* right, size_t begin,
                     size_t end, float* out) const override;
};

// Local alignment (Smith-Waterman) with match +1, mismatch -1, gap -0.5,
// normalized by min(|a|, |b|).
class SmithWatermanSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "SmithWaterman"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
  void EvaluateChunk(const AttributeProfile* const* left,
                     const AttributeProfile* const* right, size_t begin,
                     size_t end, float* out) const override;
};

// Smith-Waterman with Gotoh affine gaps (open -0.5, extend -0.25),
// normalized by min(|a|, |b|).
class SmithWatermanGotohSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "SmithWatermanGotoh"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
  void EvaluateChunk(const AttributeProfile* const* left,
                     const AttributeProfile* const* right, size_t begin,
                     size_t end, float* out) const override;
};

// Longest common subsequence: 2 * lcs / (|a| + |b|).
class LongestCommonSubsequenceSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override {
    return "LongestCommonSubsequence";
  }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
  void EvaluateChunk(const AttributeProfile* const* left,
                     const AttributeProfile* const* right, size_t begin,
                     size_t end, float* out) const override;
};

// Longest common contiguous substring: lcstr / max(|a|, |b|).
class LongestCommonSubstringSimilarity final : public SimilarityFunction {
 public:
  std::string_view name() const override { return "LongestCommonSubstring"; }

 protected:
  double ComputeNonNull(const AttributeProfile& a,
                        const AttributeProfile& b) const override;
  void EvaluateChunk(const AttributeProfile* const* left,
                     const AttributeProfile* const* right, size_t begin,
                     size_t end, float* out) const override;
};

namespace internal_edit {

// Raw Jaro similarity on string views (shared with Monge-Elkan's inner
// metric). Exposed for tests.
double JaroRaw(std::string_view a, std::string_view b);

// Raw Jaro-Winkler on string views.
double JaroWinklerRaw(std::string_view a, std::string_view b);

// Raw Jaro-Winkler using caller-provided scratch (Monge-Elkan's batch
// kernel reuses one scratch across its whole token-pair inner loop).
double JaroWinklerRawWith(std::string_view a, std::string_view b,
                          EditScratch& scratch);

// Raw Jaro-Winkler of a against b given b's masks (b_masks.Set(b));
// requires |a|, |b| <= kMaxMaskedLength. Monge-Elkan builds each token's
// masks once per pair and scores every token pair through this.
double JaroWinklerWithMasks(std::string_view a, std::string_view b,
                            const CharMasks& b_masks);

// Raw Levenshtein distance, uncapped; the shorter string may have at most
// kMaxMaskedLength bytes (checked). Exposed for tests.
int LevenshteinDistance(std::string_view a, std::string_view b);

}  // namespace internal_edit

}  // namespace alem

#endif  // ALEM_SIM_EDIT_BASED_H_
