// Differential fuzz of the exact edit-based similarity kernels against the
// dynamic programs they replaced.
//
// The `reference` namespace below holds verbatim copies of the row-by-row
// double / int DPs and the sequential Jaro scan that used to live in
// src/sim/edit_based.cc and src/sim/token_based.cc (scratch buffers turned
// into locals, the dispatched row / scan kernels inlined as their scalar
// loops). They exist only here, as the definition of the features the
// framework has always produced: the bit-parallel cores, the scaled-integer
// alignment kernels of every available backend and the bit-parallel Jaro
// flagging must all reproduce them bit for bit.
//
// Inputs cover lengths 0..80 (both sides of the 64-byte alignment cap),
// bytes >= 0x80 (a signed-char table index would read out of bounds),
// one- and two-letter alphabets (maximal ties in every max/min), mutated
// near-copies (long runs and high local scores) and Jaro inputs / Monge-
// Elkan tokens over 64 bytes (the window-scan fallback). The ctest matrix
// runs this once per kernel backend via ALEM_KERNEL_BACKEND.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "kernels/backend.h"
#include "sim/edit_based.h"
#include "sim/similarity.h"
#include "util/rng.h"

namespace alem {
namespace {

namespace reference {

std::string_view Capped(const std::string& s) {
  return std::string_view(s).substr(0, kMaxAlignmentLength);
}

int LevenshteinDistance(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int>(m);
  if (m == 0) return static_cast<int>(n);

  std::vector<int> previous(m + 1, 0);
  std::vector<int> current(m + 1, 0);
  for (size_t j = 0; j <= m; ++j) previous[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    current[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int substitution =
          previous[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      current[j] =
          std::min({previous[j] + 1, current[j - 1] + 1, substitution});
    }
    std::swap(previous, current);
  }
  return previous[m];
}

double JaroRaw(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;

  const size_t window =
      std::max<size_t>(1, std::max(n, m) / 2) - 1;  // Match window.
  std::vector<uint8_t> a_matched(n, 0);
  std::vector<uint8_t> b_matched(m, 0);

  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(m, i + window + 1);
    size_t j = lo;
    while (j < hi && !(b_matched[j] == 0 && b[j] == a[i])) ++j;
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
  const double dm = static_cast<double>(matches);
  return (dm / n + dm / m + (dm - transpositions / 2.0) / dm) / 3.0;
}

double JaroWinklerRaw(std::string_view a, std::string_view b) {
  const double jaro = JaroRaw(a, b);
  constexpr double kPrefixScale = 0.1;
  constexpr size_t kMaxPrefix = 4;
  size_t prefix = 0;
  const size_t limit = std::min({a.size(), b.size(), kMaxPrefix});
  while (prefix < limit && a[prefix] == b[prefix]) ++prefix;
  return jaro + static_cast<double>(prefix) * kPrefixScale * (1.0 - jaro);
}

double Levenshtein(const AttributeProfile& a, const AttributeProfile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t max_len = std::max(sa.size(), sb.size());
  if (max_len == 0) return 1.0;
  const int distance = LevenshteinDistance(sa, sb);
  return 1.0 - static_cast<double>(distance) / static_cast<double>(max_len);
}

double DamerauLevenshtein(const AttributeProfile& a,
                          const AttributeProfile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  const size_t max_len = std::max(n, m);
  if (max_len == 0) return 1.0;
  if (n == 0 || m == 0) {
    return 1.0 - static_cast<double>(std::max(n, m)) /
                     static_cast<double>(max_len);
  }

  std::vector<int> two_back(m + 1, 0);
  std::vector<int> previous(m + 1, 0);
  std::vector<int> current(m + 1, 0);
  for (size_t j = 0; j <= m; ++j) previous[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    current[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int cost = sa[i - 1] == sb[j - 1] ? 0 : 1;
      int best = std::min({previous[j] + 1, current[j - 1] + 1,
                           previous[j - 1] + cost});
      if (i > 1 && j > 1 && sa[i - 1] == sb[j - 2] && sa[i - 2] == sb[j - 1]) {
        best = std::min(best, two_back[j - 2] + 1);
      }
      current[j] = best;
    }
    std::swap(two_back, previous);
    std::swap(previous, current);
  }
  return 1.0 -
         static_cast<double>(previous[m]) / static_cast<double>(max_len);
}

double Jaro(const AttributeProfile& a, const AttributeProfile& b) {
  return JaroRaw(a.text, b.text);
}

double JaroWinkler(const AttributeProfile& a, const AttributeProfile& b) {
  return JaroWinklerRaw(a.text, b.text);
}

// Raw Needleman-Wunsch score (the double DP's final cell).
double NeedlemanWunschScore(std::string_view sa, std::string_view sb) {
  const size_t n = sa.size();
  const size_t m = sb.size();
  constexpr double kGap = -1.0;
  std::vector<double> previous(m + 1, 0.0);
  std::vector<double> current(m + 1, 0.0);
  for (size_t j = 0; j <= m; ++j) previous[j] = kGap * static_cast<double>(j);
  for (size_t i = 1; i <= n; ++i) {
    current[0] = kGap * static_cast<double>(i);
    for (size_t j = 1; j <= m; ++j) {
      const double match = sa[i - 1] == sb[j - 1] ? 1.0 : -1.0;
      current[j] = std::max({previous[j - 1] + match, previous[j] + kGap,
                             current[j - 1] + kGap});
    }
    std::swap(previous, current);
  }
  return previous[m];
}

double NeedlemanWunsch(const AttributeProfile& a, const AttributeProfile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const double max_len = static_cast<double>(std::max(sa.size(), sb.size()));
  if (max_len == 0) return 1.0;
  const double score = NeedlemanWunschScore(sa, sb);
  return (score + max_len) / (2.0 * max_len);
}

// Raw Smith-Waterman best local score.
double SmithWatermanScore(std::string_view sa, std::string_view sb) {
  const size_t n = sa.size();
  const size_t m = sb.size();
  constexpr double kGap = -0.5;
  std::vector<double> previous(m + 1, 0.0);
  std::vector<double> current(m + 1, 0.0);
  double best = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    current[0] = 0.0;
    for (size_t j = 1; j <= m; ++j) {
      const double match = sa[i - 1] == sb[j - 1] ? 1.0 : -1.0;
      current[j] = std::max({0.0, previous[j - 1] + match, previous[j] + kGap,
                             current[j - 1] + kGap});
      best = std::max(best, current[j]);
    }
    std::swap(previous, current);
  }
  return best;
}

double SmithWaterman(const AttributeProfile& a, const AttributeProfile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  const double min_len = static_cast<double>(std::min(n, m));
  if (min_len == 0) return n == m ? 1.0 : 0.0;
  return SmithWatermanScore(sa, sb) / min_len;
}

// Raw Smith-Waterman-Gotoh best local score.
double SmithWatermanGotohScore(std::string_view sa, std::string_view sb) {
  const size_t n = sa.size();
  const size_t m = sb.size();
  constexpr double kGapOpen = -0.5;
  constexpr double kGapExtend = -0.25;
  constexpr double kNegInf = -1e30;

  std::vector<double> h_prev(m + 1, 0.0);
  std::vector<double> h_cur(m + 1, 0.0);
  std::vector<double> f_prev(m + 1, kNegInf);
  std::vector<double> f_cur(m + 1, kNegInf);
  double best = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    double e = kNegInf;
    h_cur[0] = 0.0;
    for (size_t j = 1; j <= m; ++j) {
      e = std::max(e + kGapExtend, h_cur[j - 1] + kGapOpen);
      f_cur[j] = std::max(f_prev[j] + kGapExtend, h_prev[j] + kGapOpen);
      const double match = sa[i - 1] == sb[j - 1] ? 1.0 : -1.0;
      h_cur[j] = std::max({0.0, h_prev[j - 1] + match, e, f_cur[j]});
      best = std::max(best, h_cur[j]);
    }
    std::swap(h_prev, h_cur);
    std::swap(f_prev, f_cur);
  }
  return best;
}

double SmithWatermanGotoh(const AttributeProfile& a,
                          const AttributeProfile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  const double min_len = static_cast<double>(std::min(n, m));
  if (min_len == 0) return n == m ? 1.0 : 0.0;
  return SmithWatermanGotohScore(sa, sb) / min_len;
}

double LongestCommonSubsequence(const AttributeProfile& a,
                                const AttributeProfile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  if (n + m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;

  std::vector<int> previous(m + 1, 0);
  std::vector<int> current(m + 1, 0);
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      current[j] = sa[i - 1] == sb[j - 1]
                       ? previous[j - 1] + 1
                       : std::max(previous[j], current[j - 1]);
    }
    std::swap(previous, current);
  }
  return 2.0 * previous[m] / static_cast<double>(n + m);
}

double LongestCommonSubstring(const AttributeProfile& a,
                              const AttributeProfile& b) {
  const std::string_view sa = Capped(a.text);
  const std::string_view sb = Capped(b.text);
  const size_t n = sa.size();
  const size_t m = sb.size();
  const size_t max_len = std::max(n, m);
  if (max_len == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;

  std::vector<int> previous(m + 1, 0);
  std::vector<int> current(m + 1, 0);
  int best = 0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      current[j] = sa[i - 1] == sb[j - 1] ? previous[j - 1] + 1 : 0;
      best = std::max(best, current[j]);
    }
    std::swap(previous, current);
  }
  return static_cast<double>(best) / static_cast<double>(max_len);
}

double MongeElkan(const AttributeProfile& a, const AttributeProfile& b) {
  constexpr size_t kMaxTokens = 30;
  const size_t na = std::min(a.tokens.size(), kMaxTokens);
  const size_t nb = std::min(b.tokens.size(), kMaxTokens);
  if (na == 0 || nb == 0) return na == nb ? 1.0 : 0.0;

  auto directed = [](const std::vector<std::string>& from,
                     const std::vector<std::string>& to, size_t nf,
                     size_t nt) {
    double sum = 0.0;
    for (size_t i = 0; i < nf; ++i) {
      double best = 0.0;
      for (size_t j = 0; j < nt; ++j) {
        best = std::max(best, JaroWinklerRaw(from[i], to[j]));
        if (best >= 1.0) break;
      }
      sum += best;
    }
    return sum / static_cast<double>(nf);
  };
  return 0.5 * (directed(a.tokens, b.tokens, na, nb) +
                directed(b.tokens, a.tokens, nb, na));
}

}  // namespace reference

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint32_t Bits(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Readable rendering of a fuzz input: printable ASCII as is, other bytes
// as \xNN.
std::string Show(std::string_view s) {
  static const char kHex[] = "0123456789abcdef";
  std::string out = "\"";
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f) {
      out += c;
    } else {
      out += "\\x";
      out += kHex[byte >> 4];
      out += kHex[byte & 15];
    }
  }
  return out + "\" (" + std::to_string(s.size()) + " bytes)";
}

// Alphabets of the generator; each stresses a different failure mode.
enum class Alphabet {
  kOneLetter,   // "aaaa": every cell ties.
  kTwoLetters,  // "abba": dense matches, many equal-score paths.
  kWords,       // Lower-case words and digits separated by spaces.
  kHighBytes,   // Mostly bytes >= 0x80, some ASCII and spaces.
};

std::string RandomString(Rng& rng, Alphabet alphabet, size_t length) {
  static const char kWordChars[] = "etaoinshrdlucmfwypvbgkqjxz0123456789";
  std::string s(length, ' ');
  for (char& c : s) {
    switch (alphabet) {
      case Alphabet::kOneLetter:
        c = 'a';
        break;
      case Alphabet::kTwoLetters:
        c = rng.NextBernoulli(0.5) ? 'a' : 'b';
        break;
      case Alphabet::kWords:
        c = rng.NextBernoulli(0.15)
                ? ' '
                : kWordChars[rng.NextBelow(sizeof(kWordChars) - 1)];
        break;
      case Alphabet::kHighBytes: {
        const uint64_t roll = rng.NextBelow(10);
        c = roll < 7   ? static_cast<char>(0x80 + rng.NextBelow(128))
            : roll < 9 ? static_cast<char>('a' + rng.NextBelow(3))
                       : ' ';
        break;
      }
    }
  }
  return s;
}

// A near-copy of s: a few substitutions, insertions, deletions and adjacent
// swaps, so pairs carry long common runs and transpositions.
std::string Mutate(Rng& rng, std::string s, Alphabet alphabet) {
  const size_t edits = rng.NextBelow(6);
  for (size_t e = 0; e < edits; ++e) {
    const std::string fresh = RandomString(rng, alphabet, 1);
    const size_t at = s.empty() ? 0 : rng.NextBelow(s.size());
    switch (rng.NextBelow(4)) {
      case 0:
        if (!s.empty()) s[at] = fresh[0];
        break;
      case 1:
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(at), fresh[0]);
        break;
      case 2:
        if (!s.empty()) s.erase(at, 1);
        break;
      default:
        if (at + 1 < s.size()) std::swap(s[at], s[at + 1]);
        break;
    }
  }
  return s;
}

// Profile built by hand so the text reaches the similarity functions
// byte for byte (AttributeProfile::Build would strip, lower-case and drop
// empty values): tokens are the space-separated pieces of the text.
AttributeProfile RawProfile(const std::string& text) {
  AttributeProfile profile;
  profile.is_null = false;
  profile.text = text;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t end = std::min(text.find(' ', start), text.size());
    if (end > start) profile.tokens.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return profile;
}

struct FuzzPair {
  std::string a;
  std::string b;
};

// `count` pairs with lengths up to max_length. Every eighth pair forces one
// side's length into 60..68 so the 64-byte cap is crossed often.
std::vector<FuzzPair> FuzzPairs(uint64_t seed, size_t count,
                                size_t max_length) {
  Rng rng(seed);
  std::vector<FuzzPair> pairs;
  pairs.reserve(count + 8);
  // Fixed edge cases first: empties and exact-cap lengths.
  for (const size_t length : {size_t{0}, size_t{1}, size_t{63}, size_t{64},
                              size_t{65}}) {
    pairs.push_back({std::string(length, 'a'), std::string(64, 'a')});
    pairs.push_back({std::string(length, 'a'), std::string()});
  }
  while (pairs.size() < count) {
    const auto alphabet = static_cast<Alphabet>(rng.NextBelow(4));
    const size_t length = pairs.size() % 8 == 0
                              ? 60 + rng.NextBelow(9)
                              : rng.NextBelow(max_length + 1);
    std::string a = RandomString(rng, alphabet, length);
    std::string b = rng.NextBernoulli(0.5)
                        ? Mutate(rng, a, alphabet)
                        : RandomString(rng, alphabet,
                                       rng.NextBelow(max_length + 1));
    if (rng.NextBernoulli(0.5)) std::swap(a, b);
    pairs.push_back({std::move(a), std::move(b)});
  }
  return pairs;
}

using ReferenceSim = double (*)(const AttributeProfile&,
                                const AttributeProfile&);

// Compares one registered similarity function with its reference on every
// pair, through both the per-pair path and the batch (chunked) path.
void ExpectMatchesReference(std::string_view name, ReferenceSim reference,
                            const std::vector<FuzzPair>& pairs) {
  const int index = SimilarityIndexByName(name);
  ASSERT_GE(index, 0) << name;
  const SimilarityFunction* function =
      AllSimilarityFunctions()[static_cast<size_t>(index)];
  std::vector<AttributeProfile> left;
  std::vector<AttributeProfile> right;
  left.reserve(pairs.size());
  right.reserve(pairs.size());
  for (const FuzzPair& pair : pairs) {
    left.push_back(RawProfile(pair.a));
    right.push_back(RawProfile(pair.b));
  }
  std::vector<const AttributeProfile*> left_ptrs;
  std::vector<const AttributeProfile*> right_ptrs;
  for (size_t i = 0; i < pairs.size(); ++i) {
    left_ptrs.push_back(&left[i]);
    right_ptrs.push_back(&right[i]);
  }
  std::vector<float> batch(pairs.size());
  function->EvaluateBatch(left_ptrs, right_ptrs, batch.data());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const double expected =
        std::clamp(reference(left[i], right[i]), 0.0, 1.0);
    const double actual = function->Similarity(left[i], right[i]);
    ASSERT_EQ(Bits(actual), Bits(expected))
        << name << " under " << kernels::BackendName() << ": "
        << Show(pairs[i].a) << " vs " << Show(pairs[i].b) << " expected "
        << expected << " got " << actual;
    ASSERT_EQ(Bits(batch[i]), Bits(static_cast<float>(expected)))
        << name << " batch under " << kernels::BackendName() << ": "
        << Show(pairs[i].a) << " vs " << Show(pairs[i].b);
  }
}

constexpr size_t kPairs = 3000;

TEST(SimKernelFuzzTest, Levenshtein) {
  ExpectMatchesReference("Levenshtein", reference::Levenshtein,
                         FuzzPairs(1, kPairs, 80));
}

TEST(SimKernelFuzzTest, DamerauLevenshtein) {
  ExpectMatchesReference("DamerauLevenshtein", reference::DamerauLevenshtein,
                         FuzzPairs(2, kPairs, 80));
}

TEST(SimKernelFuzzTest, LongestCommonSubsequence) {
  ExpectMatchesReference("LongestCommonSubsequence",
                         reference::LongestCommonSubsequence,
                         FuzzPairs(3, kPairs, 80));
}

TEST(SimKernelFuzzTest, LongestCommonSubstring) {
  ExpectMatchesReference("LongestCommonSubstring",
                         reference::LongestCommonSubstring,
                         FuzzPairs(4, kPairs, 80));
}

TEST(SimKernelFuzzTest, NeedlemanWunsch) {
  ExpectMatchesReference("NeedlemanWunsch", reference::NeedlemanWunsch,
                         FuzzPairs(5, kPairs, 80));
}

TEST(SimKernelFuzzTest, SmithWaterman) {
  ExpectMatchesReference("SmithWaterman", reference::SmithWaterman,
                         FuzzPairs(6, kPairs, 80));
}

TEST(SimKernelFuzzTest, SmithWatermanGotoh) {
  ExpectMatchesReference("SmithWatermanGotoh", reference::SmithWatermanGotoh,
                         FuzzPairs(7, kPairs, 80));
}

// Jaro text is not capped: lengths up to 160 send about half the pairs
// down the window-scan fallback.
TEST(SimKernelFuzzTest, Jaro) {
  ExpectMatchesReference("Jaro", reference::Jaro, FuzzPairs(8, kPairs, 160));
}

TEST(SimKernelFuzzTest, JaroWinkler) {
  ExpectMatchesReference("JaroWinkler", reference::JaroWinkler,
                         FuzzPairs(9, kPairs, 160));
}

// Token-level Jaro-Winkler: word and high-byte texts give many short
// tokens; one- and two-letter texts give a single token of up to 160
// bytes, so tokens over 64 bytes take the fallback next to masked ones.
TEST(SimKernelFuzzTest, MongeElkan) {
  ExpectMatchesReference("MongeElkan", reference::MongeElkan,
                         FuzzPairs(10, kPairs, 160));
}

// The raw string entry points exposed for tests, on the same inputs.
TEST(SimKernelFuzzTest, RawEntryPoints) {
  for (const FuzzPair& pair : FuzzPairs(11, kPairs, 160)) {
    ASSERT_EQ(Bits(internal_edit::JaroRaw(pair.a, pair.b)),
              Bits(reference::JaroRaw(pair.a, pair.b)))
        << Show(pair.a) << " vs " << Show(pair.b);
    ASSERT_EQ(Bits(internal_edit::JaroWinklerRaw(pair.a, pair.b)),
              Bits(reference::JaroWinklerRaw(pair.a, pair.b)))
        << Show(pair.a) << " vs " << Show(pair.b);
    if (std::min(pair.a.size(), pair.b.size()) <= 64) {
      ASSERT_EQ(internal_edit::LevenshteinDistance(pair.a, pair.b),
                reference::LevenshteinDistance(pair.a, pair.b))
          << Show(pair.a) << " vs " << Show(pair.b);
    }
  }
}

// The alignment-score kernels of every available backend against the
// double DPs, on inputs already cut to the cap (the kernels' contract).
// Raw scores compare as numbers: the double NW score of two empty strings
// is -0.0 (kGap * 0), a value the similarity never uses (it returns 1.0
// first); every score the similarities do divide is pinned bitwise above.
TEST(SimKernelFuzzTest, AlignmentKernelsMatchDoubleDpOnEveryBackend) {
  const std::vector<FuzzPair> pairs = FuzzPairs(12, kPairs, 64);
  const std::string previous(kernels::BackendName());
  for (const std::string_view backend : kernels::AvailableBackendNames()) {
    ASSERT_TRUE(kernels::SetBackend(backend, nullptr)) << backend;
    const kernels::KernelOps& ops = kernels::Active();
    for (const FuzzPair& pair : pairs) {
      const std::string_view a = reference::Capped(pair.a);
      const std::string_view b = reference::Capped(pair.b);
      ASSERT_EQ(ops.nw_score(a.data(), a.size(), b.data(), b.size()),
                reference::NeedlemanWunschScore(a, b))
          << backend << ": " << Show(a) << " vs " << Show(b);
      ASSERT_EQ(ops.sw_score_x4(a.data(), a.size(), b.data(), b.size()) / 4.0,
                reference::SmithWatermanScore(a, b))
          << backend << ": " << Show(a) << " vs " << Show(b);
      ASSERT_EQ(ops.swg_score_x4(a.data(), a.size(), b.data(), b.size()) / 4.0,
                reference::SmithWatermanGotohScore(a, b))
          << backend << ": " << Show(a) << " vs " << Show(b);
    }
  }
  kernels::SetBackend(previous, nullptr);
}

}  // namespace
}  // namespace alem
