#include "sim/edit_based.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "kernels/backend.h"
#include "util/check.h"

namespace alem {
namespace {

using internal_edit::CharMasks;
using internal_edit::EditScratch;
using internal_edit::kMaxMaskedLength;

static_assert(kMaxAlignmentLength <= kMaxMaskedLength,
              "the bit-parallel DPs hold one capped string in a 64-bit word");
static_assert(kMaxAlignmentLength <= kernels::kMaxDpLength,
              "the alignment-score kernels take at most kMaxDpLength bytes");

std::string_view Capped(const std::string& s) {
  return std::string_view(s).substr(0, kMaxAlignmentLength);
}

// Bits 0 .. len-1 set; len <= 64.
uint64_t LowBits(size_t len) {
  return len >= 64 ? ~uint64_t{0} : (uint64_t{1} << len) - 1;
}

// Runs fn(masks) with `masks` holding the position masks of s (|s| <= 64)
// and leaves the table all-zero again.
template <typename Fn>
auto WithMasks(CharMasks& masks, std::string_view s, Fn fn) {
  masks.Set(s);
  const auto result = fn(static_cast<const CharMasks&>(masks));
  masks.Clear(s);
  return result;
}

// ---- Bit-parallel cores --------------------------------------------------
//
// Each function below holds DP columns over b (1 <= |b| <= 64) in 64-bit
// words and consumes one character of a per step; all arithmetic is exact
// integer work, so they return the same integers as the row DPs they
// replace (tests/sim_kernel_fuzz_test.cc keeps those DPs as references).
// Carries and shifts only move toward higher bits, so the unused bits
// above |b| never reach the bits that are read.

// Levenshtein distance (Myers 1999, in Hyyrö's formulation): vp / vn are
// the +1 / -1 vertical deltas of the current DP column, `distance` tracks
// its last cell. With `transpositions`, Hyyrö's 2003 extension adds the
// optimal-string-alignment move (adjacent swap, cost 1) via `tr`.
int EditDistanceBitParallel(std::string_view a, std::string_view b,
                            const CharMasks& b_masks, bool transpositions) {
  const uint64_t last = uint64_t{1} << (b.size() - 1);
  uint64_t vp = ~uint64_t{0};
  uint64_t vn = 0;
  uint64_t d0 = 0;
  uint64_t previous_eq = 0;
  int distance = static_cast<int>(b.size());
  for (const char c : a) {
    const uint64_t eq = b_masks[c];
    const uint64_t tr =
        transpositions ? (((~d0) & eq) << 1) & previous_eq : uint64_t{0};
    d0 = (((eq & vp) + vp) ^ vp) | eq | vn | tr;
    uint64_t hp = vn | ~(d0 | vp);
    uint64_t hn = d0 & vp;
    distance += (hp & last) != 0;
    distance -= (hn & last) != 0;
    hp = (hp << 1) | 1;
    hn <<= 1;
    vp = hn | ~(d0 | hp);
    vn = hp & d0;
    previous_eq = eq;
  }
  return distance;
}

// Longest common subsequence length (Allison-Dix / Hyyrö): the zero bits
// of v mark the columns where the LCS row value steps up.
int LcsLengthBitParallel(std::string_view a, std::string_view b,
                         const CharMasks& b_masks) {
  uint64_t v = ~uint64_t{0};
  for (const char c : a) {
    const uint64_t u = v & b_masks[c];
    v = (v + u) | (v - u);
  }
  return std::popcount(~v & LowBits(b.size()));
}

// Longest common substring length. level[k] holds the columns where a
// common run of at least k characters ends on the current row of a:
//   level[k] = mask(a[i]) & (previous row's level[k-1] << 1),
// updated in place from the top level down. A run grows by at most one
// per row, so only levels up to best + 1 are needed, and best grows
// exactly when level[best + 1] is non-empty.
int LongestCommonSubstringBitParallel(std::string_view a,
                                      const CharMasks& b_masks) {
  uint64_t level[kMaxAlignmentLength + 2];
  level[1] = 0;
  int best = 0;
  for (const char c : a) {
    const uint64_t eq = b_masks[c];
    for (int k = best + 1; k >= 2; --k) level[k] = eq & (level[k - 1] << 1);
    level[1] = eq;
    if (level[best + 1] != 0) ++best;
  }
  return best;
}

// ---- Jaro ----------------------------------------------------------------

double JaroFromCounts(size_t matches, size_t transpositions, size_t n,
                      size_t m) {
  if (matches == 0) return 0.0;
  const double dm = static_cast<double>(matches);
  return (dm / n + dm / m + (dm - transpositions / 2.0) / dm) / 3.0;
}

size_t JaroWindow(size_t n, size_t m) {
  return std::max<size_t>(1, std::max(n, m) / 2) - 1;
}

// Jaro with bit-parallel match flagging; 1 <= |a|, |b| <= 64. For a[i]
// the sequential scan takes the lowest unflagged position of b inside the
// window holding a[i]: the lowest set bit of
//   mask(a[i]) & window(i) & ~flagged,
// so both find the same match set, hence the same transpositions.
double JaroBitParallel(std::string_view a, std::string_view b,
                       const CharMasks& b_masks) {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t window = JaroWindow(n, m);
  uint64_t a_flags = 0;
  uint64_t b_flags = 0;
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(m, i + window + 1);
    // lo >= hi leaves an empty window: LowBits(hi) & ~LowBits(lo) == 0.
    const uint64_t candidates =
        b_masks[a[i]] & LowBits(hi) & ~LowBits(lo) & ~b_flags;
    if (candidates != 0) {
      b_flags |= candidates & (~candidates + 1);
      a_flags |= uint64_t{1} << i;
      ++matches;
    }
  }
  size_t transpositions = 0;
  for (; a_flags != 0; a_flags &= a_flags - 1, b_flags &= b_flags - 1) {
    if (a[std::countr_zero(a_flags)] != b[std::countr_zero(b_flags)]) {
      ++transpositions;
    }
  }
  return JaroFromCounts(matches, transpositions, n, m);
}

// Jaro via the backend-dispatched window scan, for strings over 64 bytes.
double JaroScan(std::string_view a, std::string_view b,
                EditScratch& scratch) {
  const size_t n = a.size();
  const size_t m = b.size();
  const size_t window = JaroWindow(n, m);
  std::vector<uint8_t>& a_matched = scratch.flags[0];
  std::vector<uint8_t>& b_matched = scratch.flags[1];
  a_matched.assign(n, 0);
  b_matched.assign(m, 0);

  const kernels::KernelOps& ops = kernels::Active();
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(m, i + window + 1);
    const size_t j = ops.jaro_scan(b.data(), b_matched.data(), lo, hi, a[i]);
    if (j < hi) {
      a_matched[i] = 1;
      b_matched[j] = 1;
      ++matches;
    }
  }
  if (matches == 0) return 0.0;

  size_t transpositions = 0;
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    if (a_matched[i] == 0) continue;
    while (b_matched[k] == 0) ++k;
    if (a[i] != b[k]) ++transpositions;
    ++k;
  }
  return JaroFromCounts(matches, transpositions, n, m);
}

// Jaro is not capped: the bit-parallel path covers strings of up to 64
// bytes, longer ones take the scan.
double JaroRawWith(std::string_view a, std::string_view b,
                   EditScratch& scratch) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  if (a.size() > kMaxMaskedLength || b.size() > kMaxMaskedLength) {
    return JaroScan(a, b, scratch);
  }
  return WithMasks(scratch.masks, b, [&](const CharMasks& b_masks) {
    return JaroBitParallel(a, b, b_masks);
  });
}

double WinklerBoost(double jaro, std::string_view a, std::string_view b) {
  constexpr double kPrefixScale = 0.1;
  constexpr size_t kMaxPrefix = 4;
  size_t prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), kMaxPrefix});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * kPrefixScale * (1.0 - jaro);
}

// ---- Similarities --------------------------------------------------------

double LevenshteinSim(const AttributeProfile& a, const AttributeProfile& b,
                      EditScratch& scratch) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t max_len = std::max(sa.size(), sb.size());
  if (max_len == 0) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  const int distance =
      WithMasks(scratch.masks, sb, [&](const CharMasks& b_masks) {
        return EditDistanceBitParallel(sa, sb, b_masks, false);
      });
  return 1.0 - static_cast<double>(distance) / static_cast<double>(max_len);
}

double DamerauLevenshteinSim(const AttributeProfile& a,
                             const AttributeProfile& b,
                             EditScratch& scratch) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t max_len = std::max(sa.size(), sb.size());
  if (max_len == 0) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  const int distance =
      WithMasks(scratch.masks, sb, [&](const CharMasks& b_masks) {
        return EditDistanceBitParallel(sa, sb, b_masks, true);
      });
  return 1.0 - static_cast<double>(distance) / static_cast<double>(max_len);
}

double JaroSim(const AttributeProfile& a, const AttributeProfile& b,
               EditScratch& scratch) {
  return JaroRawWith(a.text, b.text, scratch);
}

double JaroWinklerSim(const AttributeProfile& a, const AttributeProfile& b,
                      EditScratch& scratch) {
  return internal_edit::JaroWinklerRawWith(a.text, b.text, scratch);
}

// The three alignment scores come from the backend-dispatched kernels on
// integers scaled by 4 (NW: 1); dividing by the scale is exact, so `best`
// and `score` hold the same doubles the double DP produced.

double NeedlemanWunschSim(const AttributeProfile& a, const AttributeProfile& b,
                          EditScratch& /*scratch*/) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const double max_len = static_cast<double>(std::max(sa.size(), sb.size()));
  if (max_len == 0) return 1.0;
  const double score = kernels::Active().nw_score(sa.data(), sa.size(),
                                                  sb.data(), sb.size());
  return (score + max_len) / (2.0 * max_len);
}

double SmithWatermanSim(const AttributeProfile& a, const AttributeProfile& b,
                        EditScratch& /*scratch*/) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  const double min_len = static_cast<double>(std::min(n, m));
  if (min_len == 0) return n == m ? 1.0 : 0.0;
  const double best =
      kernels::Active().sw_score_x4(sa.data(), n, sb.data(), m) / 4.0;
  return best / min_len;
}

double SmithWatermanGotohSim(const AttributeProfile& a,
                             const AttributeProfile& b,
                             EditScratch& /*scratch*/) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  const double min_len = static_cast<double>(std::min(n, m));
  if (min_len == 0) return n == m ? 1.0 : 0.0;
  const double best =
      kernels::Active().swg_score_x4(sa.data(), n, sb.data(), m) / 4.0;
  return best / min_len;
}

double LongestCommonSubsequenceSim(const AttributeProfile& a,
                                   const AttributeProfile& b,
                                   EditScratch& scratch) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  if (n + m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  const int lcs = WithMasks(scratch.masks, sb, [&](const CharMasks& b_masks) {
    return LcsLengthBitParallel(sa, sb, b_masks);
  });
  return 2.0 * lcs / static_cast<double>(n + m);
}

double LongestCommonSubstringSim(const AttributeProfile& a,
                                 const AttributeProfile& b,
                                 EditScratch& scratch) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t max_len = std::max(sa.size(), sb.size());
  if (max_len == 0) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  const int longest =
      WithMasks(scratch.masks, sb, [&](const CharMasks& b_masks) {
        return LongestCommonSubstringBitParallel(sa, b_masks);
      });
  return static_cast<double>(longest) / static_cast<double>(max_len);
}

// Runs `sim` over one batch chunk with a single shared scratch, applying
// the same null-check + clamp + float cast as the scalar Similarity() path.
template <typename Sim>
void ChunkWith(const AttributeProfile* const* left,
               const AttributeProfile* const* right, size_t begin, size_t end,
               float* out, Sim sim) {
  EditScratch scratch;
  for (size_t i = begin; i < end; ++i) {
    const AttributeProfile& a = *left[i];
    const AttributeProfile& b = *right[i];
    out[i] = (a.is_null || b.is_null)
                 ? 0.0f
                 : static_cast<float>(
                       std::clamp(sim(a, b, scratch), 0.0, 1.0));
  }
}

}  // namespace

namespace internal_edit {

int LevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b: the shorter, in the word.
  if (b.empty()) return static_cast<int>(a.size());
  ALEM_CHECK_LE(b.size(), kMaxMaskedLength);
  EditScratch scratch;
  return WithMasks(scratch.masks, b, [&](const CharMasks& b_masks) {
    return EditDistanceBitParallel(a, b, b_masks, false);
  });
}

double JaroRaw(std::string_view a, std::string_view b) {
  EditScratch scratch;
  return JaroRawWith(a, b, scratch);
}

double JaroWinklerRawWith(std::string_view a, std::string_view b,
                          EditScratch& scratch) {
  return WinklerBoost(JaroRawWith(a, b, scratch), a, b);
}

double JaroWinklerWithMasks(std::string_view a, std::string_view b,
                            const CharMasks& b_masks) {
  double jaro;
  if (a.empty() || b.empty()) {
    jaro = a.empty() && b.empty() ? 1.0 : 0.0;
  } else {
    jaro = JaroBitParallel(a, b, b_masks);
  }
  return WinklerBoost(jaro, a, b);
}

double JaroWinklerRaw(std::string_view a, std::string_view b) {
  EditScratch scratch;
  return JaroWinklerRawWith(a, b, scratch);
}

}  // namespace internal_edit

double IdentitySimilarity::ComputeNonNull(const AttributeProfile& a,
                                          const AttributeProfile& b) const {
  return a.text == b.text ? 1.0 : 0.0;
}

double LevenshteinSimilarity::ComputeNonNull(const AttributeProfile& a,
                                             const AttributeProfile& b) const {
  EditScratch scratch;
  return LevenshteinSim(a, b, scratch);
}

void LevenshteinSimilarity::EvaluateChunk(const AttributeProfile* const* left,
                                          const AttributeProfile* const* right,
                                          size_t begin, size_t end,
                                          float* out) const {
  ChunkWith(left, right, begin, end, out, LevenshteinSim);
}

double DamerauLevenshteinSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  EditScratch scratch;
  return DamerauLevenshteinSim(a, b, scratch);
}

void DamerauLevenshteinSimilarity::EvaluateChunk(
    const AttributeProfile* const* left, const AttributeProfile* const* right,
    size_t begin, size_t end, float* out) const {
  ChunkWith(left, right, begin, end, out, DamerauLevenshteinSim);
}

double JaroSimilarity::ComputeNonNull(const AttributeProfile& a,
                                      const AttributeProfile& b) const {
  EditScratch scratch;
  return JaroSim(a, b, scratch);
}

void JaroSimilarity::EvaluateChunk(const AttributeProfile* const* left,
                                   const AttributeProfile* const* right,
                                   size_t begin, size_t end,
                                   float* out) const {
  ChunkWith(left, right, begin, end, out, JaroSim);
}

double JaroWinklerSimilarity::ComputeNonNull(const AttributeProfile& a,
                                             const AttributeProfile& b) const {
  EditScratch scratch;
  return JaroWinklerSim(a, b, scratch);
}

void JaroWinklerSimilarity::EvaluateChunk(const AttributeProfile* const* left,
                                          const AttributeProfile* const* right,
                                          size_t begin, size_t end,
                                          float* out) const {
  ChunkWith(left, right, begin, end, out, JaroWinklerSim);
}

double NeedlemanWunschSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  EditScratch scratch;
  return NeedlemanWunschSim(a, b, scratch);
}

void NeedlemanWunschSimilarity::EvaluateChunk(
    const AttributeProfile* const* left, const AttributeProfile* const* right,
    size_t begin, size_t end, float* out) const {
  ChunkWith(left, right, begin, end, out, NeedlemanWunschSim);
}

double SmithWatermanSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  EditScratch scratch;
  return SmithWatermanSim(a, b, scratch);
}

void SmithWatermanSimilarity::EvaluateChunk(
    const AttributeProfile* const* left, const AttributeProfile* const* right,
    size_t begin, size_t end, float* out) const {
  ChunkWith(left, right, begin, end, out, SmithWatermanSim);
}

double SmithWatermanGotohSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  EditScratch scratch;
  return SmithWatermanGotohSim(a, b, scratch);
}

void SmithWatermanGotohSimilarity::EvaluateChunk(
    const AttributeProfile* const* left, const AttributeProfile* const* right,
    size_t begin, size_t end, float* out) const {
  ChunkWith(left, right, begin, end, out, SmithWatermanGotohSim);
}

double LongestCommonSubsequenceSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  EditScratch scratch;
  return LongestCommonSubsequenceSim(a, b, scratch);
}

void LongestCommonSubsequenceSimilarity::EvaluateChunk(
    const AttributeProfile* const* left, const AttributeProfile* const* right,
    size_t begin, size_t end, float* out) const {
  ChunkWith(left, right, begin, end, out, LongestCommonSubsequenceSim);
}

double LongestCommonSubstringSimilarity::ComputeNonNull(
    const AttributeProfile& a, const AttributeProfile& b) const {
  EditScratch scratch;
  return LongestCommonSubstringSim(a, b, scratch);
}

void LongestCommonSubstringSimilarity::EvaluateChunk(
    const AttributeProfile* const* left, const AttributeProfile* const* right,
    size_t begin, size_t end, float* out) const {
  ChunkWith(left, right, begin, end, out, LongestCommonSubstringSim);
}

}  // namespace alem
