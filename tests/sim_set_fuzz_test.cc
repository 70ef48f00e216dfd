// Differential fuzz of the sorted flat multisets behind the ten set-based
// similarity functions against the hash-map multisets they replaced.
//
// The `reference` namespace below holds verbatim copies of the
// std::unordered_map CountedMultiset, the string q-gram extractor QGrams()
// and the profile builder that used to live in src/text/, plus the formulas
// of the three q-gram and seven token-set similarities over them. They exist
// only here, as the definition of the features the framework has always
// produced: the sorted multisets, the packed 16-bit bigram keys and every
// multiset operation must reproduce them bit for bit.
//
// Inputs are raw attribute values run through AttributeProfile::Build:
// empty, whitespace- and punctuation-only values, text containing '#' (the
// bigram pad), bytes >= 0x80, upper case, repeated tokens and values over
// 64 bytes. The ctest matrix runs this once per kernel backend via
// ALEM_KERNEL_BACKEND.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kernels/backend.h"
#include "parallel/pool.h"
#include "sim/similarity.h"
#include "text/profile.h"
#include "text/tokenizer.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace alem {
namespace {

namespace reference {

class CountedMultiset {
 public:
  CountedMultiset() = default;
  explicit CountedMultiset(const std::vector<std::string>& items);

  const std::unordered_map<std::string, int>& counts() const {
    return counts_;
  }
  int total() const { return total_; }
  size_t distinct() const { return counts_.size(); }
  double norm() const { return norm_; }

  int CountOf(const std::string& item) const;

  static int MultisetIntersection(const CountedMultiset& a,
                                  const CountedMultiset& b);
  static int SetIntersection(const CountedMultiset& a,
                             const CountedMultiset& b);
  static double Dot(const CountedMultiset& a, const CountedMultiset& b);
  static int L1Distance(const CountedMultiset& a, const CountedMultiset& b);
  static double SquaredL2Distance(const CountedMultiset& a,
                                  const CountedMultiset& b);

 private:
  std::unordered_map<std::string, int> counts_;
  int total_ = 0;
  double norm_ = 0.0;
};

CountedMultiset::CountedMultiset(const std::vector<std::string>& items) {
  for (const std::string& item : items) {
    ++counts_[item];
    ++total_;
  }
  double sum_squares = 0.0;
  for (const auto& [item, count] : counts_) {
    sum_squares += static_cast<double>(count) * count;
  }
  norm_ = std::sqrt(sum_squares);
}

int CountedMultiset::CountOf(const std::string& item) const {
  const auto it = counts_.find(item);
  return it == counts_.end() ? 0 : it->second;
}

int CountedMultiset::MultisetIntersection(const CountedMultiset& a,
                                          const CountedMultiset& b) {
  const CountedMultiset& small = a.counts_.size() <= b.counts_.size() ? a : b;
  const CountedMultiset& large = a.counts_.size() <= b.counts_.size() ? b : a;
  int intersection = 0;
  for (const auto& [item, count] : small.counts_) {
    intersection += std::min(count, large.CountOf(item));
  }
  return intersection;
}

int CountedMultiset::SetIntersection(const CountedMultiset& a,
                                     const CountedMultiset& b) {
  const CountedMultiset& small = a.counts_.size() <= b.counts_.size() ? a : b;
  const CountedMultiset& large = a.counts_.size() <= b.counts_.size() ? b : a;
  int intersection = 0;
  for (const auto& [item, count] : small.counts_) {
    (void)count;
    if (large.CountOf(item) > 0) ++intersection;
  }
  return intersection;
}

double CountedMultiset::Dot(const CountedMultiset& a,
                            const CountedMultiset& b) {
  const CountedMultiset& small = a.counts_.size() <= b.counts_.size() ? a : b;
  const CountedMultiset& large = a.counts_.size() <= b.counts_.size() ? b : a;
  double dot = 0.0;
  for (const auto& [item, count] : small.counts_) {
    dot += static_cast<double>(count) * large.CountOf(item);
  }
  return dot;
}

int CountedMultiset::L1Distance(const CountedMultiset& a,
                                const CountedMultiset& b) {
  int distance = 0;
  for (const auto& [item, count] : a.counts_) {
    distance += std::abs(count - b.CountOf(item));
  }
  for (const auto& [item, count] : b.counts_) {
    if (a.CountOf(item) == 0) distance += count;
  }
  return distance;
}

double CountedMultiset::SquaredL2Distance(const CountedMultiset& a,
                                          const CountedMultiset& b) {
  double distance = 0.0;
  for (const auto& [item, count] : a.counts_) {
    const double diff = count - b.CountOf(item);
    distance += diff * diff;
  }
  for (const auto& [item, count] : b.counts_) {
    if (a.CountOf(item) == 0) {
      distance += static_cast<double>(count) * count;
    }
  }
  return distance;
}

std::vector<std::string> QGrams(std::string_view text, int q) {
  ALEM_CHECK_GE(q, 1);
  std::vector<std::string> grams;
  if (text.empty()) return grams;

  std::string padded;
  padded.reserve(text.size() + static_cast<size_t>(2 * (q - 1)));
  padded.append(static_cast<size_t>(q - 1), '#');
  for (const char raw : text) {
    padded.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(raw))));
  }
  padded.append(static_cast<size_t>(q - 1), '#');

  if (padded.size() < static_cast<size_t>(q)) return grams;
  grams.reserve(padded.size() - static_cast<size_t>(q) + 1);
  for (size_t i = 0; i + static_cast<size_t>(q) <= padded.size(); ++i) {
    grams.emplace_back(padded.substr(i, static_cast<size_t>(q)));
  }
  return grams;
}

struct AttributeProfile {
  bool is_null = true;
  std::string text;
  std::vector<std::string> tokens;
  CountedMultiset token_counts;
  CountedMultiset bigram_counts;

  static AttributeProfile Build(std::string_view raw);
};

AttributeProfile AttributeProfile::Build(std::string_view raw) {
  AttributeProfile profile;
  const std::string_view stripped = StripAsciiWhitespace(raw);
  if (stripped.empty()) {
    return profile;  // is_null stays true.
  }
  profile.is_null = false;
  profile.text = ToLowerAscii(stripped);
  profile.tokens = TokenizeWords(profile.text);
  profile.token_counts = CountedMultiset(profile.tokens);
  profile.bigram_counts = CountedMultiset(QGrams(profile.text, 2));
  return profile;
}

// The ComputeNonNull bodies of src/sim/qgram_based.cc and
// src/sim/token_based.cc, over the reference profile.

double QGram(const AttributeProfile& a, const AttributeProfile& b) {
  const int total = a.bigram_counts.total() + b.bigram_counts.total();
  if (total == 0) return 1.0;
  const int distance =
      CountedMultiset::L1Distance(a.bigram_counts, b.bigram_counts);
  return 1.0 - static_cast<double>(distance) / static_cast<double>(total);
}

double CosineQGrams(const AttributeProfile& a, const AttributeProfile& b) {
  const double denom = a.bigram_counts.norm() * b.bigram_counts.norm();
  if (denom == 0.0) {
    return a.bigram_counts.total() == b.bigram_counts.total() ? 1.0 : 0.0;
  }
  return CountedMultiset::Dot(a.bigram_counts, b.bigram_counts) / denom;
}

double SimonWhite(const AttributeProfile& a, const AttributeProfile& b) {
  const int total = a.bigram_counts.total() + b.bigram_counts.total();
  if (total == 0) return 1.0;
  const int intersection =
      CountedMultiset::MultisetIntersection(a.bigram_counts, b.bigram_counts);
  return 2.0 * intersection / static_cast<double>(total);
}

double Jaccard(const AttributeProfile& a, const AttributeProfile& b) {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const int unions = static_cast<int>(a.token_counts.distinct()) +
                     static_cast<int>(b.token_counts.distinct()) -
                     intersection;
  if (unions == 0) return 1.0;
  return static_cast<double>(intersection) / unions;
}

double Dice(const AttributeProfile& a, const AttributeProfile& b) {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const size_t denom = a.token_counts.distinct() + b.token_counts.distinct();
  if (denom == 0) return 1.0;
  return 2.0 * intersection / static_cast<double>(denom);
}

double OverlapCoefficient(const AttributeProfile& a,
                          const AttributeProfile& b) {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const size_t denom =
      std::min(a.token_counts.distinct(), b.token_counts.distinct());
  if (denom == 0) {
    return a.token_counts.distinct() == b.token_counts.distinct() ? 1.0 : 0.0;
  }
  return static_cast<double>(intersection) / static_cast<double>(denom);
}

double CosineTokens(const AttributeProfile& a, const AttributeProfile& b) {
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

double MatchingCoefficient(const AttributeProfile& a,
                           const AttributeProfile& b) {
  const int intersection =
      CountedMultiset::SetIntersection(a.token_counts, b.token_counts);
  const size_t denom =
      std::max(a.token_counts.distinct(), b.token_counts.distinct());
  if (denom == 0) return 1.0;
  return static_cast<double>(intersection) / static_cast<double>(denom);
}

double BlockDistance(const AttributeProfile& a, const AttributeProfile& b) {
  const int total = a.token_counts.total() + b.token_counts.total();
  if (total == 0) return 1.0;
  const int distance =
      CountedMultiset::L1Distance(a.token_counts, b.token_counts);
  return 1.0 - static_cast<double>(distance) / static_cast<double>(total);
}

double Euclidean(const AttributeProfile& a, const AttributeProfile& b) {
  const double ta = a.token_counts.total();
  const double tb = b.token_counts.total();
  const double bound = std::sqrt(ta * ta + tb * tb);
  if (bound == 0.0) return 1.0;
  const double distance = std::sqrt(
      CountedMultiset::SquaredL2Distance(a.token_counts, b.token_counts));
  return 1.0 - distance / bound;
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

// A small vocabulary, so tokens repeat within and across values; mixed case
// and a '#' inside one word.
constexpr const char* kWords[] = {
    "sony", "Sony", "SONY", "camera", "dsc", "w55", "7.2", "mp", "zoom",
    "a",    "b",    "ab",   "ba",     "#1",  "x#y", "lens", "2009",
};
// Separators, including the bigram pad and non-alphanumeric punctuation.
constexpr const char* kSeparators[] = {" ", " ", " ", "-", ", ", "#", "  ",
                                       "/", " & "};

std::string RandomValue(Rng& rng) {
  switch (rng.NextBelow(8)) {
    case 0: {  // Empty, whitespace-only or punctuation-only.
      static const char* kDegenerate[] = {"", " ", " \t ", "-", "---  !!!",
                                          "#", "##", "# #", ".,;"};
      return kDegenerate[rng.NextBelow(std::size(kDegenerate))];
    }
    case 1: {  // Mostly bytes >= 0x80, some ASCII, '#' and spaces.
      std::string s(rng.NextBelow(24), ' ');
      for (char& c : s) {
        const uint64_t roll = rng.NextBelow(10);
        c = roll < 6   ? static_cast<char>(0x80 + rng.NextBelow(128))
            : roll < 8 ? static_cast<char>('A' + rng.NextBelow(3))
            : roll < 9 ? '#'
                       : ' ';
      }
      return s;
    }
    case 2: {  // One byte repeated: a single bigram with a high count.
      const char c = rng.NextBernoulli(0.5) ? 'a' : '#';
      return std::string(1 + rng.NextBelow(90), c);
    }
    default: {  // Words; about a third of these run over 64 bytes.
      const size_t words = 1 + rng.NextBelow(rng.NextBernoulli(0.3) ? 24 : 6);
      std::string s;
      for (size_t w = 0; w < words; ++w) {
        if (w > 0) s += kSeparators[rng.NextBelow(std::size(kSeparators))];
        s += kWords[rng.NextBelow(std::size(kWords))];
      }
      return s;
    }
  }
}

// A near-copy of s: a few words appended, a few bytes dropped or
// upper-cased, so pairs share most tokens and bigrams.
std::string Mutate(Rng& rng, std::string s) {
  const size_t edits = rng.NextBelow(4);
  for (size_t e = 0; e < edits; ++e) {
    const size_t at = s.empty() ? 0 : rng.NextBelow(s.size());
    switch (rng.NextBelow(3)) {
      case 0:
        s += std::string(" ") + kWords[rng.NextBelow(std::size(kWords))];
        break;
      case 1:
        if (!s.empty()) s.erase(at, 1);
        break;
      default:
        if (!s.empty()) {
          s[at] = static_cast<char>(
              std::toupper(static_cast<unsigned char>(s[at])));
        }
        break;
    }
  }
  return s;
}

struct FuzzPair {
  std::string a;
  std::string b;
};

std::vector<FuzzPair> FuzzPairs(uint64_t seed, size_t count) {
  Rng rng(seed);
  std::vector<FuzzPair> pairs;
  pairs.reserve(count);
  while (pairs.size() < count) {
    std::string a = RandomValue(rng);
    std::string b =
        rng.NextBernoulli(0.5) ? Mutate(rng, a) : RandomValue(rng);
    if (rng.NextBernoulli(0.5)) std::swap(a, b);
    pairs.push_back({std::move(a), std::move(b)});
  }
  return pairs;
}

constexpr size_t kPairs = 3000;

// Both profile builders over the same raw values.
struct Profiles {
  std::vector<AttributeProfile> left;
  std::vector<AttributeProfile> right;
  std::vector<reference::AttributeProfile> ref_left;
  std::vector<reference::AttributeProfile> ref_right;
};

Profiles BuildProfiles(const std::vector<FuzzPair>& pairs) {
  Profiles profiles;
  for (const FuzzPair& pair : pairs) {
    profiles.left.push_back(AttributeProfile::Build(pair.a));
    profiles.right.push_back(AttributeProfile::Build(pair.b));
    profiles.ref_left.push_back(reference::AttributeProfile::Build(pair.a));
    profiles.ref_right.push_back(reference::AttributeProfile::Build(pair.b));
  }
  return profiles;
}

// Every count of the reference multiset is found under its key, and there
// are no other keys.
void ExpectSameCounts(const CountedMultiset& actual,
                      const reference::CountedMultiset& expected,
                      std::string_view raw) {
  ASSERT_EQ(actual.total(), expected.total()) << Show(raw);
  ASSERT_EQ(actual.distinct(), expected.distinct()) << Show(raw);
  ASSERT_EQ(Bits(actual.norm()), Bits(expected.norm())) << Show(raw);
  for (const auto& [token, count] : expected.counts()) {
    ASSERT_EQ(actual.CountOf(token), count) << Show(raw) << " " << token;
  }
}

void ExpectSameCounts(const BigramMultiset& actual,
                      const reference::CountedMultiset& expected,
                      std::string_view raw) {
  ASSERT_EQ(actual.total(), expected.total()) << Show(raw);
  ASSERT_EQ(actual.distinct(), expected.distinct()) << Show(raw);
  ASSERT_EQ(Bits(actual.norm()), Bits(expected.norm())) << Show(raw);
  for (const auto& [gram, count] : expected.counts()) {
    ASSERT_EQ(gram.size(), 2u);
    ASSERT_EQ(actual.CountOf(BigramKey(gram[0], gram[1])), count)
        << Show(raw) << " " << Show(gram);
  }
}

// The five operations agree exactly, in both argument orders.
template <typename Multiset>
void ExpectSameOps(const Multiset& a, const Multiset& b,
                   const reference::CountedMultiset& ra,
                   const reference::CountedMultiset& rb,
                   const FuzzPair& pair) {
  using Ref = reference::CountedMultiset;
  for (const bool swapped : {false, true}) {
    const Multiset& x = swapped ? b : a;
    const Multiset& y = swapped ? a : b;
    const Ref& rx = swapped ? rb : ra;
    const Ref& ry = swapped ? ra : rb;
    ASSERT_EQ(Multiset::MultisetIntersection(x, y),
              Ref::MultisetIntersection(rx, ry))
        << Show(pair.a) << " vs " << Show(pair.b);
    ASSERT_EQ(Multiset::SetIntersection(x, y), Ref::SetIntersection(rx, ry))
        << Show(pair.a) << " vs " << Show(pair.b);
    ASSERT_EQ(Bits(Multiset::Dot(x, y)), Bits(Ref::Dot(rx, ry)))
        << Show(pair.a) << " vs " << Show(pair.b);
    ASSERT_EQ(Multiset::L1Distance(x, y), Ref::L1Distance(rx, ry))
        << Show(pair.a) << " vs " << Show(pair.b);
    ASSERT_EQ(Bits(Multiset::SquaredL2Distance(x, y)),
              Bits(Ref::SquaredL2Distance(rx, ry)))
        << Show(pair.a) << " vs " << Show(pair.b);
  }
}

TEST(SimSetFuzzTest, ProfilesMatchHashMapBuilder) {
  const std::vector<FuzzPair> pairs = FuzzPairs(1, kPairs);
  const Profiles profiles = BuildProfiles(pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    for (const bool right : {false, true}) {
      const AttributeProfile& actual =
          right ? profiles.right[i] : profiles.left[i];
      const reference::AttributeProfile& expected =
          right ? profiles.ref_right[i] : profiles.ref_left[i];
      const std::string& raw = right ? pairs[i].b : pairs[i].a;
      ASSERT_EQ(actual.is_null, expected.is_null) << Show(raw);
      ASSERT_EQ(actual.text, expected.text) << Show(raw);
      ASSERT_EQ(actual.tokens, expected.tokens) << Show(raw);
      ExpectSameCounts(actual.token_counts, expected.token_counts, raw);
      ExpectSameCounts(actual.bigram_counts, expected.bigram_counts, raw);
      // Unstripped, upper-case bytes included: PaddedBigrams lower-cases
      // like QGrams did.
      ExpectSameCounts(PaddedBigrams(raw),
                       reference::CountedMultiset(reference::QGrams(raw, 2)),
                       raw);
    }
  }
}

TEST(SimSetFuzzTest, MultisetOpsMatchHashMap) {
  const std::vector<FuzzPair> pairs = FuzzPairs(2, kPairs);
  const Profiles profiles = BuildProfiles(pairs);
  for (size_t i = 0; i < pairs.size(); ++i) {
    ExpectSameOps(profiles.left[i].token_counts,
                  profiles.right[i].token_counts,
                  profiles.ref_left[i].token_counts,
                  profiles.ref_right[i].token_counts, pairs[i]);
    ExpectSameOps(profiles.left[i].bigram_counts,
                  profiles.right[i].bigram_counts,
                  profiles.ref_left[i].bigram_counts,
                  profiles.ref_right[i].bigram_counts, pairs[i]);
  }
}

// Multisets built directly from items, outside any profile: keys the
// tokenizer never emits (empty, '#', high bytes) and large counts.
TEST(SimSetFuzzTest, MultisetOpsMatchHashMapOnRawItems) {
  Rng rng(3);
  const std::string alphabet[] = {"",  "#", "a",      "A",    "ab",
                                  "b", "\x80", "\xff#", "zz", "a "};
  for (size_t round = 0; round < kPairs; ++round) {
    std::vector<std::string> items[2];
    for (std::vector<std::string>& side : items) {
      side.resize(rng.NextBelow(40));
      for (std::string& item : side) {
        item = alphabet[rng.NextBelow(std::size(alphabet))];
      }
    }
    const CountedMultiset a(items[0]);
    const CountedMultiset b(items[1]);
    const reference::CountedMultiset ra(items[0]);
    const reference::CountedMultiset rb(items[1]);
    ExpectSameCounts(a, ra, "raw items a");
    ExpectSameCounts(b, rb, "raw items b");
    ExpectSameOps(a, b, ra, rb, {"raw items a", "raw items b"});
  }
}

using ReferenceSim = double (*)(const reference::AttributeProfile&,
                                const reference::AttributeProfile&);

// Compares one registered similarity function with its reference on every
// pair, through the per-pair path and the batch path at 1 and 4 threads.
void ExpectMatchesReference(std::string_view name, ReferenceSim reference,
                            uint64_t seed) {
  const int index = SimilarityIndexByName(name);
  ASSERT_GE(index, 0) << name;
  const SimilarityFunction* function =
      AllSimilarityFunctions()[static_cast<size_t>(index)];
  const std::vector<FuzzPair> pairs = FuzzPairs(seed, kPairs);
  const Profiles profiles = BuildProfiles(pairs);
  std::vector<double> expected(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const reference::AttributeProfile& a = profiles.ref_left[i];
    const reference::AttributeProfile& b = profiles.ref_right[i];
    expected[i] = (a.is_null || b.is_null)
                      ? 0.0
                      : std::clamp(reference(a, b), 0.0, 1.0);
    const double actual =
        function->Similarity(profiles.left[i], profiles.right[i]);
    ASSERT_EQ(Bits(actual), Bits(expected[i]))
        << name << " under " << kernels::BackendName() << ": "
        << Show(pairs[i].a) << " vs " << Show(pairs[i].b) << " expected "
        << expected[i] << " got " << actual;
  }

  std::vector<const AttributeProfile*> left_ptrs;
  std::vector<const AttributeProfile*> right_ptrs;
  for (size_t i = 0; i < pairs.size(); ++i) {
    left_ptrs.push_back(&profiles.left[i]);
    right_ptrs.push_back(&profiles.right[i]);
  }
  const int previous_threads = parallel::NumThreads();
  for (const int threads : {1, 4}) {
    parallel::SetNumThreads(threads);
    std::vector<float> batch(pairs.size(), -1.0f);
    function->EvaluateBatch(left_ptrs, right_ptrs, batch.data());
    for (size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_EQ(Bits(batch[i]), Bits(static_cast<float>(expected[i])))
          << name << " batch at " << threads << " threads under "
          << kernels::BackendName() << ": " << Show(pairs[i].a) << " vs "
          << Show(pairs[i].b);
    }
  }
  parallel::SetNumThreads(previous_threads);
}

TEST(SimSetFuzzTest, QGram) {
  ExpectMatchesReference("QGram", reference::QGram, 10);
}

TEST(SimSetFuzzTest, CosineQGrams) {
  ExpectMatchesReference("CosineQGrams", reference::CosineQGrams, 11);
}

TEST(SimSetFuzzTest, SimonWhite) {
  ExpectMatchesReference("SimonWhite", reference::SimonWhite, 12);
}

TEST(SimSetFuzzTest, Jaccard) {
  ExpectMatchesReference("Jaccard", reference::Jaccard, 13);
}

TEST(SimSetFuzzTest, Dice) {
  ExpectMatchesReference("Dice", reference::Dice, 14);
}

TEST(SimSetFuzzTest, OverlapCoefficient) {
  ExpectMatchesReference("OverlapCoefficient", reference::OverlapCoefficient,
                         15);
}

TEST(SimSetFuzzTest, CosineTokens) {
  ExpectMatchesReference("CosineTokens", reference::CosineTokens, 16);
}

TEST(SimSetFuzzTest, MatchingCoefficient) {
  ExpectMatchesReference("MatchingCoefficient",
                         reference::MatchingCoefficient, 17);
}

TEST(SimSetFuzzTest, BlockDistance) {
  ExpectMatchesReference("BlockDistance", reference::BlockDistance, 18);
}

TEST(SimSetFuzzTest, Euclidean) {
  ExpectMatchesReference("Euclidean", reference::Euclidean, 19);
}

}  // namespace
}  // namespace alem
