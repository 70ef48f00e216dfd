#include "text/profile.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "text/tokenizer.h"
#include "util/string_util.h"

namespace alem {
namespace {

int Compare(uint16_t a, uint16_t b) { return int{a} - int{b}; }
int Compare(const std::string& a, const std::string& b) { return a.compare(b); }

// Walks two sorted entry lists in key order, calling both(count_a, count_b)
// for a key present in both and only(count) for a key present in one.
template <typename Entry, typename Both, typename Only>
void Merge(const std::vector<Entry>& a, const std::vector<Entry>& b,
           Both both, Only only) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const int order = Compare(a[i].key, b[j].key);
    if (order < 0) {
      only(a[i++].count);
    } else if (order > 0) {
      only(b[j++].count);
    } else {
      both(a[i++].count, b[j++].count);
    }
  }
  for (; i < a.size(); ++i) only(a[i].count);
  for (; j < b.size(); ++j) only(b[j].count);
}

char LowerAscii(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

template <typename Key>
SortedMultiset<Key>::SortedMultiset(std::vector<Key> items) {
  std::sort(items.begin(), items.end());
  const auto run_end = [&items](size_t begin) {
    size_t end = begin + 1;
    while (end < items.size() && items[end] == items[begin]) ++end;
    return end;
  };
  size_t runs = 0;
  for (size_t i = 0; i < items.size(); i = run_end(i)) ++runs;
  entries_.reserve(runs);
  int64_t sum_squares = 0;
  for (size_t i = 0; i < items.size();) {
    const size_t end = run_end(i);
    const int count = static_cast<int>(end - i);
    entries_.push_back({std::move(items[i]), count});
    sum_squares += int64_t{count} * count;
    i = end;
  }
  total_ = static_cast<int>(items.size());
  norm_ = std::sqrt(static_cast<double>(sum_squares));
}

template <typename Key>
int SortedMultiset<Key>::CountOf(const Key& item) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), item,
      [](const Entry& entry, const Key& key) { return entry.key < key; });
  return it != entries_.end() && it->key == item ? it->count : 0;
}

template <typename Key>
int SortedMultiset<Key>::MultisetIntersection(const SortedMultiset& a,
                                              const SortedMultiset& b) {
  int intersection = 0;
  Merge(
      a.entries_, b.entries_,
      [&](int ca, int cb) { intersection += std::min(ca, cb); },
      [](int) {});
  return intersection;
}

template <typename Key>
int SortedMultiset<Key>::SetIntersection(const SortedMultiset& a,
                                         const SortedMultiset& b) {
  int intersection = 0;
  Merge(
      a.entries_, b.entries_, [&](int, int) { ++intersection; }, [](int) {});
  return intersection;
}

template <typename Key>
double SortedMultiset<Key>::Dot(const SortedMultiset& a,
                                const SortedMultiset& b) {
  int64_t dot = 0;
  Merge(
      a.entries_, b.entries_, [&](int ca, int cb) { dot += int64_t{ca} * cb; },
      [](int) {});
  return static_cast<double>(dot);
}

template <typename Key>
int SortedMultiset<Key>::L1Distance(const SortedMultiset& a,
                                    const SortedMultiset& b) {
  int distance = 0;
  Merge(
      a.entries_, b.entries_,
      [&](int ca, int cb) { distance += std::abs(ca - cb); },
      [&](int count) { distance += count; });
  return distance;
}

template <typename Key>
double SortedMultiset<Key>::SquaredL2Distance(const SortedMultiset& a,
                                              const SortedMultiset& b) {
  int64_t distance = 0;
  Merge(
      a.entries_, b.entries_,
      [&](int ca, int cb) {
        const int64_t diff = ca - cb;
        distance += diff * diff;
      },
      [&](int count) { distance += int64_t{count} * count; });
  return static_cast<double>(distance);
}

template class SortedMultiset<std::string>;
template class SortedMultiset<uint16_t>;

BigramMultiset PaddedBigrams(std::string_view text) {
  if (text.empty()) return {};
  std::vector<uint16_t> keys;
  keys.reserve(text.size() + 1);
  char previous = '#';
  for (const char raw : text) {
    const char c = LowerAscii(raw);
    keys.push_back(BigramKey(previous, c));
    previous = c;
  }
  keys.push_back(BigramKey(previous, '#'));
  return BigramMultiset(std::move(keys));
}

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
  profile.bigram_counts = PaddedBigrams(profile.text);
  return profile;
}

}  // namespace alem
