// AttributeProfile: a cached, pre-tokenized view of one attribute value.
//
// The feature extractor applies 21 similarity functions to every attribute
// pair of every candidate record pair. Re-tokenizing the same attribute value
// for each of those calls would dominate runtime, so each record attribute is
// profiled exactly once (lower-cased string, word tokens, token multiset,
// 2-gram multiset) and the similarity functions consume profiles.
//
// Both multisets are sorted flat vectors of (key, count) entries: tokens keep
// their string, padded bigrams pack into a 16-bit key. Every multiset
// operation is one linear merge of two sorted lists, with no hashing and no
// allocation per pair. Each returns an integer, or a double holding an
// exactly summed integer (far below 2^53), so its bits do not depend on the
// order the entries are visited in (docs/featurization.md).

#ifndef ALEM_TEXT_PROFILE_H_
#define ALEM_TEXT_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace alem {

// Sparse multiset of keys with cached aggregate statistics, stored as
// (key, count) entries in ascending key order.
template <typename Key>
class SortedMultiset {
 public:
  SortedMultiset() = default;
  // Counts `items`, given in any order.
  explicit SortedMultiset(std::vector<Key> items);

  // Total number of items, with multiplicity.
  int total() const { return total_; }
  // Number of distinct items.
  size_t distinct() const { return entries_.size(); }
  // Euclidean norm of the count vector.
  double norm() const { return norm_; }

  int CountOf(const Key& item) const;

  // Size of the multiset intersection (sum of min counts).
  static int MultisetIntersection(const SortedMultiset& a,
                                  const SortedMultiset& b);
  // Number of distinct items present in both.
  static int SetIntersection(const SortedMultiset& a, const SortedMultiset& b);
  // Dot product of the two count vectors.
  static double Dot(const SortedMultiset& a, const SortedMultiset& b);
  // L1 distance between the count vectors.
  static int L1Distance(const SortedMultiset& a, const SortedMultiset& b);
  // Squared L2 distance between the count vectors.
  static double SquaredL2Distance(const SortedMultiset& a,
                                  const SortedMultiset& b);

 private:
  struct Entry {
    Key key;
    int count;
  };

  std::vector<Entry> entries_;
  int total_ = 0;
  double norm_ = 0.0;
};

// Word-token multiset.
using CountedMultiset = SortedMultiset<std::string>;

// Padded character-bigram multiset; see BigramKey.
using BigramMultiset = SortedMultiset<uint16_t>;

// The key of the bigram (first, second): (first << 8) | second, as bytes.
constexpr uint16_t BigramKey(char first, char second) {
  return static_cast<uint16_t>((static_cast<unsigned char>(first) << 8) |
                               static_cast<unsigned char>(second));
}

// Padded character bigrams of the ASCII-lower-cased `text`: the text is
// padded with one '#' on both sides, so "ab" yields {"#a", "ab", "b#"}. An
// empty input yields no bigrams.
BigramMultiset PaddedBigrams(std::string_view text);

// Pre-tokenized view of one attribute value.
struct AttributeProfile {
  // True when the source value was empty/missing; every similarity function
  // evaluates to 0 against a null profile (Section 3 of the paper).
  bool is_null = true;

  // Lower-cased raw text.
  std::string text;

  // Word tokens, in order (for Monge-Elkan).
  std::vector<std::string> tokens;

  // Token multiset (for Jaccard/Dice/cosine/overlap/block/Euclidean).
  CountedMultiset token_counts;

  // Padded character 2-gram multiset (for the q-gram family).
  BigramMultiset bigram_counts;

  // Builds a profile; `raw` is stripped and lower-cased first.
  static AttributeProfile Build(std::string_view raw);
};

}  // namespace alem

#endif  // ALEM_TEXT_PROFILE_H_
